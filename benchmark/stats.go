package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, in milliseconds. It sorts a copy; an empty slice yields 0.
func percentile(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1]) / float64(time.Millisecond)
}

// medianDur is the median of samples in microseconds.
func medianDur(samples []time.Duration) float64 {
	return percentile(samples, 50) * 1000
}

// summary is one metric folded over the repetitions of a run: the median
// is the reported value; min and max are its spread, and the quartiles
// (as Python's statistics.quantiles(values, n=4) gives them) are what
// -compare judges a run's own noise by.
type summary struct {
	Median, Min, Max, Q1, Q3 float64
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return summary{Median: s[0], Min: s[0], Max: s[0], Q1: s[0], Q3: s[0]}
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: quartile(2), Min: s[0], Max: s[n-1], Q1: quartile(1), Q3: quartile(3)}
}

func median(vals []float64) float64 { return summarize(vals).Median }

// calibrationSink keeps the compiler from deleting the calibration loop.
var calibrationSink uint64

// calibrate times a fixed CPU spin: the same instruction count on every
// call, so a change between two calls measures the machine, not the
// program. Disturbance only ever adds time, so the fastest of five spins is
// the steadiest witness. The spin stays in registers: it witnesses lost CPU
// time, not a neighbour's pressure on memory.
func calibrate() float64 {
	const spins = 5
	best := math.Inf(1)
	for i := 0; i < spins; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 12_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibrationSink += x
		best = math.Min(best, float64(time.Since(start))/float64(time.Millisecond))
	}
	return best
}

// environment is the stamp stored beside results: numbers from two
// different stamps are not comparable.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOGC       string `json:"gogc"`
	Kernel     string `json:"kernel"`
	OS         string `json:"os"`
}

func stampEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        "unknown",
		GOGC:       os.Getenv("GOGC"),
		Kernel:     "unknown",
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if env.GOGC == "" {
		env.GOGC = "100 (default)"
	}
	// A benchmark checkout need not be a git repository; the stamp then
	// stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					env.CPU = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}
