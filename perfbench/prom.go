package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is a parsed /metrics scrape.
type promSnapshot []promSample

// parseProm parses Prometheus text exposition format 0.0.4 (comments and
// blank lines skipped; no timestamps, as the program never writes them).
func parseProm(text string) (promSnapshot, error) {
	var out promSnapshot
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=\"")
			if eq <= 0 {
				return s, fmt.Errorf("bad label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' && i+1 < len(rest) {
					i++
					switch rest[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[i])
					}
					continue
				}
				if c == '"' {
					rest = rest[i+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// matches reports whether every want label is present with that value.
func (s promSample) matches(name string, want map[string]string) bool {
	if s.name != name {
		return false
	}
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every sample of name whose labels include want.
func (p promSnapshot) sum(name string, want map[string]string) float64 {
	t := 0.0
	for _, s := range p {
		if s.matches(name, want) {
			t += s.value
		}
	}
	return t
}

// max is the largest sample of name whose labels include want.
func (p promSnapshot) max(name string, want map[string]string) float64 {
	m := 0.0
	for _, s := range p {
		if s.matches(name, want) && s.value > m {
			m = s.value
		}
	}
	return m
}

// buckets returns a histogram's cumulative bucket counts by upper bound,
// summed across children whose labels include want.
func (p promSnapshot) buckets(name string, want map[string]string) map[float64]float64 {
	out := map[float64]float64{}
	for _, s := range p {
		if !s.matches(name+"_bucket", want) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		out[le] += s.value
	}
	return out
}

// promDelta is the change between two scrapes of the same process: the
// counters and histograms a run moved.
type promDelta struct{ before, after promSnapshot }

// counter is the increase of a counter (summed over matching children).
func (d promDelta) counter(name string, want map[string]string) float64 {
	return d.after.sum(name, want) - d.before.sum(name, want)
}

// histCount and histSum are a histogram's observation count and total
// (in the histogram's unit) during the interval.
func (d promDelta) histCount(name string, want map[string]string) float64 {
	return d.counter(name+"_count", want)
}

func (d promDelta) histSum(name string, want map[string]string) float64 {
	return d.counter(name+"_sum", want)
}

// histMean is the mean observation during the interval (0 when none).
func (d promDelta) histMean(name string, want map[string]string) float64 {
	n := d.histCount(name, want)
	if n == 0 {
		return 0
	}
	return d.histSum(name, want) / n
}

// histQuantile estimates the q-quantile of the observations made during
// the interval from the bucket deltas, interpolating linearly inside the
// bucket that holds the target rank (Prometheus histogram_quantile rules;
// a rank in the +Inf bucket reports the highest finite bound).
func (d promDelta) histQuantile(name string, want map[string]string, q float64) float64 {
	after, before := d.after.buckets(name, want), d.before.buckets(name, want)
	bounds := make([]float64, 0, len(after))
	for le := range after {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	cum := make([]float64, len(bounds))
	for i, le := range bounds {
		cum[i] = after[le] - before[le]
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	target := q * total
	for i, c := range cum {
		if c < target {
			continue
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = bounds[i-1], cum[i-1]
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			return lo
		}
		if c == prev {
			return hi
		}
		return lo + (hi-lo)*(target-prev)/(c-prev)
	}
	return bounds[len(bounds)-1]
}
