package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed step of the benchmark's own code: a set-up call into a
// layer or a run slice.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // from the recorder's origin
	End    float64 `json:"end_s"`
}

// recorder keeps the spans of one repetition in memory until the benchmark
// writes them out.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{
		ID:     len(r.spans),
		Parent: parent,
		Name:   name,
		Start:  time.Since(r.origin).Seconds(),
	})
	return len(r.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id]
	s.End = time.Since(r.origin).Seconds()
	return s.End - s.Start
}

// total sums the durations of the named spans.
func (r *recorder) total(name string) float64 {
	var sum float64
	for _, s := range r.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// selfTime is a span's duration minus the time its child spans cover.
func (r *recorder) selfTime(id int) float64 {
	s := r.spans[id]
	d := s.End - s.Start
	for _, c := range r.spans {
		if c.Parent == id {
			d -= c.End - c.Start
		}
	}
	return d
}

// writeJSON writes every span with its self time.
func (r *recorder) writeJSON(w io.Writer) error {
	type out struct {
		span
		Self float64 `json:"self_s"`
	}
	rows := make([]out, len(r.spans))
	for i, s := range r.spans {
		rows[i] = out{s, r.selfTime(i)}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}
