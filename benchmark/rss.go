package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler tracks the process's peak resident set size between calls
// to take, sampling /proc/self/statm. A per-pass peak, unlike the
// process-lifetime maximum, can be aggregated over passes.
type rssSampler struct {
	mu   sync.Mutex
	peak int64 // bytes
	stop chan struct{}
	done chan struct{}
}

const rssInterval = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss := residentBytes()
	s.mu.Lock()
	s.peak = max(s.peak, rss)
	s.mu.Unlock()
}

// take returns the peak in MiB since the previous take and starts a new
// interval at the current size.
func (s *rssSampler) take() float64 {
	rss := residentBytes()
	s.mu.Lock()
	peak := max(s.peak, rss)
	s.peak = rss
	s.mu.Unlock()
	return float64(peak) / (1 << 20)
}

// close stops the sampling goroutine and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentBytes reads the resident set size from /proc/self/statm, or 0
// when it cannot.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
