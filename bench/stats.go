package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of sorted,
// and refuses when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return sorted[k], nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sample is one completed operation of the measured window.
type sample struct {
	// done is when the reply had been read, as an offset from the window start.
	done time.Duration
	// latency is request sent to reply read.
	latency time.Duration
}

// sliceStats cuts a window of n equal slices out of samples (a sample
// belongs to the slice it completed in) and returns each slice's completion
// rate and median latency in ms. A neighbour's burst on the host then spoils
// one slice, not the whole run's median.
func sliceStats(samples []sample, slice time.Duration, n int) (qps, p50ms []float64) {
	lat := make([][]float64, n)
	for _, s := range samples {
		i := int(s.done / slice)
		if s.done < 0 || i >= n {
			continue
		}
		lat[i] = append(lat[i], ms(s.latency))
	}
	for _, l := range lat {
		qps = append(qps, float64(len(l))/slice.Seconds())
		p50ms = append(p50ms, median(l))
	}
	return qps, p50ms
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// promSeries maps a Prometheus series as exposed (name plus its label set,
// e.g. `accelscore_queries_total{status="ok"}`) to its value.
type promSeries map[string]float64

// parseProm reads Prometheus text exposition 0.0.4 as obs.Registry writes
// it, exemplar suffixes included.
func parseProm(text string) (promSeries, error) {
	out := promSeries{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		end := seriesEnd(line)
		if end < 0 || end >= len(line) {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, nil
}

// seriesEnd returns the index just past a line's series: past the label set
// when there is one (it may hold spaces and escaped quotes, so it ends at the
// first '}' outside a quoted value), else at the first space; -1 if neither.
func seriesEnd(line string) int {
	sp := strings.IndexByte(line, ' ')
	open := strings.IndexByte(line, '{')
	if open < 0 || (sp >= 0 && sp < open) {
		return sp
	}
	quoted := false
	for i := open; i < len(line); i++ {
		switch {
		case quoted && line[i] == '\\':
			i++
		case line[i] == '"':
			quoted = !quoted
		case !quoted && line[i] == '}':
			return i + 1
		}
	}
	return -1
}

// sub returns after minus before, series by series; a series absent before
// counts from zero (counters are created on first use).
func (after promSeries) sub(before promSeries) promSeries {
	d := make(promSeries, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add sums other into s.
func (s promSeries) add(other promSeries) {
	for k, v := range other {
		s[k] += v
	}
}

// mean is a histogram's sum over its count; name carries the label set, as
// in `accelscore_wal_fsync_seconds` or `x_seconds{stage="model scoring"}`.
func (s promSeries) mean(name string) float64 {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
	}
	return ratio(s[base+"_sum"+labels], s[base+"_count"+labels])
}

// ratio is a/b, and 0 when b is 0: a layer that did no work in the window.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	// cpuTicks is utime+stime in clock ticks.
	cpuTicks int64
	// rssPages is the resident set size in pages.
	rssPages int64
}

// Linux fixes USER_HZ at 100 for /proc, whatever the kernel's own tick.
const clockTicksPerSecond = 100

func (p procStat) cpu() time.Duration {
	return time.Duration(p.cpuTicks) * time.Second / clockTicksPerSecond
}

// parseProcStat parses one /proc/<pid>/stat line. The command name (field 2)
// may hold spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	paren := strings.LastIndexByte(line, ')')
	if paren < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command field in %q", line)
	}
	f := strings.Fields(line[paren+1:])
	// f[0] is field 3 (state); utime, stime and rss are fields 14, 15, 24.
	if len(f) < 22 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command, need 22", len(f))
	}
	var v [3]int64
	for i, idx := range [3]int{11, 12, 21} {
		n, err := strconv.ParseInt(f[idx], 10, 64)
		if err != nil {
			return procStat{}, fmt.Errorf("proc stat field %d: %w", idx+3, err)
		}
		v[i] = n
	}
	return procStat{cpuTicks: v[0] + v[1], rssPages: v[2]}, nil
}
