package experiments

import (
	"fmt"
	"strings"
)

// Fig10Curve is one backend's throughput (scorings per second) across the
// record sweep.
type Fig10Curve struct {
	Backend string
	// PerSecond holds scored records per second; 0 means unsupported.
	PerSecond []float64
}

// Fig10Panel mirrors Fig9Panel with throughput values.
type Fig10Panel struct {
	Label   string
	Dataset string
	Trees   int
	Depth   int
	Records []int64
	Curves  []Fig10Curve
}

// Fig10 derives the throughput panels from the Fig. 9 latency sweep, as the
// paper does ("we compute the throughput metric by dividing the total number
// of records over the overall model scoring time", §IV-C).
func (s *Suite) Fig10() ([]Fig10Panel, error) {
	latency, err := s.Fig9()
	if err != nil {
		return nil, err
	}
	var panels []Fig10Panel
	for _, lp := range latency {
		p := Fig10Panel{
			Label:   lp.Label,
			Dataset: lp.Dataset,
			Trees:   lp.Trees,
			Depth:   lp.Depth,
			Records: lp.Records,
		}
		for _, lc := range lp.Curves {
			c := Fig10Curve{Backend: lc.Backend, PerSecond: make([]float64, len(lc.Times))}
			for i, t := range lc.Times {
				if t > 0 {
					c.PerSecond[i] = float64(lp.Records[i]) / t.Seconds()
				}
			}
			p.Curves = append(p.Curves, c)
		}
		panels = append(panels, p)
	}
	return panels, nil
}

// RenderFig10 renders throughput panels in million scorings per second, the
// paper's unit.
func RenderFig10(panels []Fig10Panel) string {
	var sb strings.Builder
	sb.WriteString("Fig. 10 — Scoring throughput vs record count (million scorings/second)\n")
	for _, p := range panels {
		fmt.Fprintf(&sb, "\n(%s) %s, %d tree(s), %d levels\n", p.Label, p.Dataset, p.Trees, p.Depth)
		fmt.Fprintf(&sb, "%14s", "records")
		for _, c := range p.Curves {
			fmt.Fprintf(&sb, " %14s", c.Backend)
		}
		sb.WriteString("\n")
		for i, n := range p.Records {
			fmt.Fprintf(&sb, "%14s", formatCount(n))
			for _, c := range p.Curves {
				if c.PerSecond[i] == 0 {
					fmt.Fprintf(&sb, " %14s", "-")
				} else {
					fmt.Fprintf(&sb, " %14.4f", c.PerSecond[i]/1e6)
				}
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// PeakThroughput returns the maximum throughput any backend reaches in the
// panel and the backend that reaches it.
func (p Fig10Panel) PeakThroughput() (string, float64) {
	bestName, best := "", 0.0
	for _, c := range p.Curves {
		for _, v := range c.PerSecond {
			if v > best {
				best = v
				bestName = c.Backend
			}
		}
	}
	return bestName, best
}
