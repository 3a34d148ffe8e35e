package perfstat

import (
	"fmt"

	"npbgo/internal/report"
)

// Anomaly names one of the paper's §5 scalability diagnoses.
type Anomaly string

const (
	// LoadImbalance is the §5.2 CG diagnosis: one worker owns most of
	// the region time (obs imbalance ratio far above 1), so added
	// threads idle instead of helping.
	LoadImbalance Anomaly = "load-imbalance"
	// BarrierSync is the §5 LU-pipeline diagnosis: a large share of
	// total worker time is spent waiting at barriers, the cost of
	// synchronizing a software-pipelined wavefront.
	BarrierSync Anomaly = "barrier-sync"
	// SmallWork is the §5 IS diagnosis: the whole cell finishes in
	// less time than thread coordination costs, so parallelism cannot
	// pay for itself.
	SmallWork Anomaly = "small-work"
)

// The anomaly rules' thresholds.
const (
	// imbalanceMin flags LoadImbalance at or above this obs imbalance
	// ratio (max busy / mean busy).
	imbalanceMin = 1.5
	// barrierShareMin flags BarrierSync when barrier wait divided by
	// total worker time (threads x median elapsed) reaches it.
	barrierShareMin = 0.2
	// smallWorkSec flags SmallWork below this median elapsed time (1 ms).
	smallWorkSec = 0.001
)

// ScalePoint is one thread count of a scalability curve.
type ScalePoint struct {
	Threads int     `json:"threads"` // 0 = serial baseline
	Median  float64 `json:"median_sec"`
	Speedup float64 `json:"speedup,omitempty"`
	// Efficiency is Speedup/Threads, the paper's E(n) column.
	Efficiency float64 `json:"efficiency,omitempty"`
	// KarpFlatt is the experimentally determined serial fraction
	// e = (1/S - 1/p) / (1 - 1/p). Near-constant e across p means an
	// Amdahl-style serial section bounds the benchmark; e growing with
	// p means overhead (synchronization, imbalance) grows with the
	// thread count. Only meaningful for Threads > 1 with a valid
	// speedup; 0 otherwise.
	KarpFlatt float64 `json:"karp_flatt,omitempty"`
	// Imbalance and BarrierShare echo the obs counters the anomaly
	// rules fired on; zero when obs was off for the record.
	Imbalance    float64   `json:"imbalance,omitempty"`
	BarrierShare float64   `json:"barrier_share,omitempty"`
	Anomalies    []Anomaly `json:"anomalies,omitempty"`
}

// BenchScaling is the scalability analysis of one (benchmark, class).
type BenchScaling struct {
	Benchmark string       `json:"benchmark"`
	Class     string       `json:"class"`
	BaseSec   float64      `json:"base_sec"` // the baseline median the curve divides by
	Points    []ScalePoint `json:"points"`
	// Anomalies is the union over all points, the per-benchmark
	// headline of the diagnosis.
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// Scaling analyses every (benchmark, class) group of a record. The
// baseline is the serial cell (threads = 0): a group whose serial cell
// failed, or was never recorded, has no baseline, so its speedups stay
// 0 and only the anomaly rules run. Failed cells are skipped.
func Scaling(rec report.BenchRecord) []BenchScaling {
	type group struct{ bench, class string }
	var order []group
	cells := make(map[group][]report.CellMetrics)
	for _, c := range rec.Cells {
		if c.Error != "" {
			continue
		}
		g := group{c.Benchmark, c.Class}
		if _, ok := cells[g]; !ok {
			order = append(order, g)
		}
		cells[g] = append(cells[g], c)
	}
	var out []BenchScaling
	for _, g := range order {
		bs := BenchScaling{Benchmark: g.bench, Class: g.class}
		var base float64
		for _, c := range cells[g] {
			if c.Threads == 0 {
				base = medianOf(c)
				break
			}
		}
		bs.BaseSec = base
		seen := make(map[Anomaly]bool)
		for _, c := range cells[g] {
			p := point(c, base)
			for _, a := range p.Anomalies {
				if !seen[a] {
					seen[a] = true
					bs.Anomalies = append(bs.Anomalies, a)
				}
			}
			bs.Points = append(bs.Points, p)
		}
		out = append(out, bs)
	}
	return out
}

// point computes one cell's scalability numbers and anomaly flags.
func point(c report.CellMetrics, base float64) ScalePoint {
	p := ScalePoint{Threads: c.Threads, Median: medianOf(c), Imbalance: c.Imbalance}
	if base > 0 && p.Median > 0 {
		p.Speedup = base / p.Median
		workers := float64(c.Threads)
		if workers < 1 {
			workers = 1 // the serial baseline divides by itself: S=E=1
		}
		p.Efficiency = p.Speedup / workers
	}
	if c.Threads > 1 && p.Median > 0 {
		p.BarrierShare = c.BarrierWait / (float64(c.Threads) * p.Median)
	}
	if c.Threads > 1 && p.Speedup > 0 {
		fp := float64(c.Threads)
		p.KarpFlatt = (1/p.Speedup - 1/fp) / (1 - 1/fp)
	}
	if c.Threads > 1 && c.Imbalance >= imbalanceMin {
		p.Anomalies = append(p.Anomalies, LoadImbalance)
	}
	if c.Threads > 1 && p.BarrierShare >= barrierShareMin {
		p.Anomalies = append(p.Anomalies, BarrierSync)
	}
	if p.Median > 0 && p.Median < smallWorkSec {
		p.Anomalies = append(p.Anomalies, SmallWork)
	}
	return p
}

// ScalingTable renders the analysis as an aligned text table: one row
// per (cell), with S(n), E(n), the Karp–Flatt serial fraction, the obs
// diagnostics and the fired anomaly flags.
func ScalingTable(reports []BenchScaling) string {
	tb := report.New(
		"Scalability: speedup S, efficiency E, Karp-Flatt serial fraction e, anomalies (cf. paper SS5)",
		"Cell", "Median", "S", "E", "e(KF)", "Imbal", "BarShare", "Anomalies")
	for _, bs := range reports {
		for _, p := range bs.Points {
			cell := fmt.Sprintf("%s.%s t%d", bs.Benchmark, bs.Class, p.Threads)
			if p.Threads == 0 {
				cell = fmt.Sprintf("%s.%s serial", bs.Benchmark, bs.Class)
			}
			kf := "-"
			if p.Threads > 1 && p.Speedup > 0 {
				kf = fmt.Sprintf("%.3f", p.KarpFlatt)
			}
			sp, eff := "-", "-"
			if p.Speedup > 0 {
				sp = report.Speedup(p.Speedup)
				eff = report.Speedup(p.Efficiency)
			}
			tb.AddRow(cell, report.Seconds(p.Median), sp, eff, kf,
				fmt.Sprintf("%.2f", p.Imbalance),
				fmt.Sprintf("%.2f", p.BarrierShare),
				anomalyText(p.Anomalies))
		}
	}
	return tb.String()
}

// anomalyText joins anomaly flags for a table cell.
func anomalyText(as []Anomaly) string {
	if len(as) == 0 {
		return "-"
	}
	s := ""
	for i, a := range as {
		if i > 0 {
			s += ","
		}
		s += string(a)
	}
	return s
}
