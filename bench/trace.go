package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one op share Op;
// Parent is the index of the causing span in the recorder, -1 for an op.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Op       int    `json:"op"`
	Rank     int    `json:"rank"` // -1 when the span is not one rank's
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, which is the untraced run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one span and returns its index, for children to name as
// their parent.
func (r *recorder) add(workload, name string, op, rank, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Workload: workload, Name: name, Op: op, Rank: rank, Parent: parent,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap: the ranks of
// one op run in parallel).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs - covered(children[i], s.StartNs, s.EndNs)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv[0], at), min(iv[1], hi)
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// selfByName is the median self time in ms of the spans with each name.
func selfByName(spans []span) map[string]float64 {
	byName := map[string][]float64{}
	for i, self := range selfTimes(spans) {
		byName[spans[i].Name] = append(byName[spans[i].Name], float64(self)/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// write stores the spans as one JSON object.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		EpochUnixNs int64  `json:"epoch_unix_ns"`
		Spans       []span `json:"spans"`
	}{r.epoch.UnixNano(), r.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
