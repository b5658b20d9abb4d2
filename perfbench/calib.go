package main

import (
	"encoding/json"
	"hash/crc32"
	"sort"
	"strconv"
	"time"
)

// calibrate times a fixed piece of standard-library work that uses none of
// the repository's code (JSON encoding and decoding, map inserts, a sort
// and a checksum) reps times and returns the median in milliseconds. A run
// prints it before set-up and after the timed phase, as a reading of how
// fast the host ran then that no change to the repository can move.
func calibrate(reps int) float64 {
	var times []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		calibSink += calibWork()
		times = append(times, float64(time.Since(t))/float64(time.Millisecond))
	}
	return median(times)
}

var calibSink int

type calibRecord struct {
	Label   string   `json:"label"`
	Events  []string `json:"events"`
	Support int      `json:"support"`
}

func calibWork() int {
	rs := make([]calibRecord, 2000)
	for i := range rs {
		ev := make([]string, 8)
		for j := range ev {
			ev[j] = "e" + strconv.Itoa((i*7+j*13)%97)
		}
		rs[i] = calibRecord{Label: "L" + strconv.Itoa(i), Events: ev, Support: i}
	}
	b, _ := json.Marshal(rs)
	var back []calibRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}

	m := map[string]int{}
	for i := 0; i < 60000; i++ {
		m["k"+strconv.Itoa(i%20000)] += i
	}

	x := make([]int32, 100000)
	s := uint32(1)
	for i := range x {
		s = s*1664525 + 1013904223
		x[i] = int32(s >> 8)
	}
	sort.Slice(x, func(a, b int) bool { return x[a] < x[b] })
	return len(back) + len(m) + int(x[0]) + int(crc32.ChecksumIEEE(b))
}
