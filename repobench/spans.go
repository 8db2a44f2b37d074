package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one request
// or sampled leaf share Req; Parent names the enclosing span ("" for the
// root). Times are nanoseconds since the benchmark process started.
type span struct {
	Req    uint32 `json:"req"`
	Name   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is root's duration minus the part of it that its child spans
// cover. Children may overlap each other or stick out of the root; each
// instant inside the root is subtracted at most once.
func selfTime(root span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, root.Start), min(k.End, root.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		covered += curE - curS
	}
	return root.dur() - covered
}

// selfLayers lists the span names whose self time the traced run
// reports, root first; a workload that never crosses a layer reports 0
// for it.
var selfLayers = []string{
	"root", "io.read_wake", "runtime.spawn_start", "admit.Admit", "runtime.Latency",
	"compute", "runtime.join", "runtime.chan_handoff", "io.flush",
}

// spanLog collects span trees in memory: it sums each layer's self time
// over every tree and keeps every keepEvery-th tree for writing out.
type spanLog struct {
	keepEvery int
	trees     int
	self      map[string]int64
	kept      []span
}

func newSpanLog(keepEvery int) *spanLog {
	return &spanLog{keepEvery: keepEvery, self: map[string]int64{}}
}

// add records one tree. Children with no recorded interval (End ≤
// Start, e.g. the backend span of a rejected request) are dropped.
func (l *spanLog) add(root span, kids []span) {
	root.Parent = ""
	live := kids[:0:0]
	for _, k := range kids {
		if k.End > k.Start {
			k.Req, k.Parent = root.Req, root.Name
			live = append(live, k)
		}
	}
	l.self["root"] += selfTime(root, live)
	for _, k := range live {
		l.self[k.Name] += k.dur()
	}
	if l.keepEvery > 0 && l.trees%l.keepEvery == 0 {
		l.kept = append(l.kept, root)
		l.kept = append(l.kept, live...)
	}
	l.trees++
}

// selfMetrics reports each layer's mean self time per tree in µs.
func (l *spanLog) selfMetrics(r *result) {
	for _, name := range selfLayers {
		r.add("self_us."+name, ratio(float64(l.self[name])/1e3, float64(l.trees)), "us")
	}
}

// write stores the kept spans as JSON lines under dir and returns the
// file's path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
