package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so it is refused, not reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·n samples at or below it. It fails unless
// at least minBeyond samples lie beyond the chosen rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("percentile %v out of (0, 1]", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample (mean of the two middle ones for even n). It
// is the summary every per-run figure uses, so it needs no tail samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samples is a goroutine-safe list of durations in one unit.
type samples struct {
	mu   sync.Mutex
	unit time.Duration
	xs   []float64
}

func newSamples(unit time.Duration) *samples { return &samples{unit: unit} }

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.xs = append(s.xs, float64(d)/float64(s.unit))
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// ledger counts attempted and failed operations. Every client call, batch
// item and correctness check is one attempt; an error, a refusal, a shed, a
// timeout, a degraded launch or a wrong output is one failure.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// record counts one operation with its outcome.
func (l *ledger) record(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// failRatio is failed over attempted operations.
func (l *ledger) failRatio() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

func (l *ledger) counts() (attempted, failed int, firstErr error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed, l.firstErr
}

// secondsList formats unit times in seconds for a report line.
func secondsList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}
