package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it called. Spans of one operation share Op; Parent
// is the span that caused this one (0 for an operation's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept, so a long traced run cannot grow without limit.
const maxSpans = 1 << 20

// tracer keeps spans in memory for the length of a run and writes them
// out at exit. A nil tracer records nothing, which is how untraced runs
// and the untraced half of a traced run call the same code.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record stores a finished span and returns its ID (0 when t is nil).
func (t *tracer) record(name string, op, parent int64, rank int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Rank: rank,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// durations returns the lengths of every span called name, in seconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// count returns how many spans were kept and how many the cap dropped.
func (t *tracer) count() (kept, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
