// Package bench regenerates the paper's evaluation: one runner per table
// and figure (§5, Figures 7–15, Table 1, and the RTT analysis), each
// producing the same series the paper plots.
//
// Numbers are simulated operation times from the calibrated cost model
// (see cluster.SwiftProfile and DESIGN.md), so absolute values are close
// to — not identical with — the paper's testbed; the shapes (who wins, by
// what factor, where the curves bend) are the reproduction target.
package bench

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/h2cloud/h2cloud/internal/baselines/casfs"
	"github.com/h2cloud/h2cloud/internal/baselines/chfs"
	"github.com/h2cloud/h2cloud/internal/baselines/dpfs"
	"github.com/h2cloud/h2cloud/internal/baselines/sidxfs"
	"github.com/h2cloud/h2cloud/internal/baselines/snapshotfs"
	"github.com/h2cloud/h2cloud/internal/baselines/staticfs"
	"github.com/h2cloud/h2cloud/internal/baselines/swiftfs"
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// System is one filesystem under test over its own simulated cloud.
type System struct {
	Name    string
	FS      fsapi.FileSystem
	Cluster *cluster.Cluster
	MW      *h2fs.Middleware // non-nil for H2Cloud
}

// Kinds lists every buildable system, in Table 1 order.
var Kinds = []string{
	"snapshot", "cas", "ch", "swift", "sidx", "static", "dp", "h2cloud",
}

// FigureKinds are the three systems the paper's figures compare:
// H2Cloud, OpenStack Swift (CH + file-path DB), and Dropbox (Dynamic
// Partition stand-in).
var FigureKinds = []string{"h2cloud", "swift", "dp"}

// DisplayName maps a system kind to the label used in the paper.
func DisplayName(kind string) string {
	switch kind {
	case "h2cloud":
		return "H2Cloud"
	case "swift":
		return "OpenStack Swift"
	case "dp":
		return "Dropbox (DP)"
	case "ch":
		return "Consistent Hash"
	case "snapshot":
		return "Compressed Snapshot"
	case "cas":
		return "CAS"
	case "static":
		return "Static Partition"
	case "sidx":
		return "Single Index Server"
	}
	return kind
}

// NewSystem builds a fresh system of the given kind over a
// paper-calibrated cloud.
func NewSystem(kind string) (*System, error) {
	profile := cluster.SwiftProfile()
	c, err := cluster.New(cluster.Config{Profile: profile})
	if err != nil {
		return nil, err
	}
	s := &System{Name: DisplayName(kind), Cluster: c}
	switch kind {
	case "h2cloud":
		mw, err := h2fs.New(h2fs.Config{Store: c, Node: 1, Profile: profile})
		if err != nil {
			return nil, err
		}
		if err := mw.CreateAccount(context.Background(), "bench"); err != nil {
			return nil, err
		}
		s.MW = mw
		s.FS = mw.FS("bench")
	case "swift":
		s.FS = swiftfs.New(c, profile, "bench", nil)
	case "dp":
		s.FS = dpfs.New(c, profile, "bench", nil)
	case "ch":
		s.FS = chfs.New(c, profile, "bench", nil)
	case "snapshot":
		s.FS = snapshotfs.New(c, profile, "bench", nil, 0)
	case "cas":
		s.FS = casfs.New(c, profile, "bench", nil)
	case "static":
		s.FS = staticfs.New(c, profile, "bench", nil, 4)
	case "sidx":
		s.FS = sidxfs.New(c, profile, "bench", nil)
	default:
		return nil, fmt.Errorf("bench: unknown system kind %q", kind)
	}
	return s, nil
}

// Measure runs op once with a fresh virtual-clock tracker and returns the
// simulated operation time.
func Measure(op func(ctx context.Context) error) (time.Duration, error) {
	tr := vclock.NewTracker()
	ctx := vclock.With(context.Background(), tr)
	if err := op(ctx); err != nil {
		return 0, err
	}
	return tr.Elapsed(), nil
}

// bg is the uncharged context used to build fixtures.
func bg() context.Context { return context.Background() }

// populateDir fills a directory with n small files named f000000..; the
// directory is created if missing.
func populateDir(fs fsapi.FileSystem, dir string, n int) error {
	ctx := bg()
	if _, err := fs.Stat(ctx, dir); err != nil {
		if err := fs.Mkdir(ctx, dir); err != nil {
			return err
		}
	}
	payload := []byte("0123456789abcdef")
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(ctx, fmt.Sprintf("%s/f%06d", dir, i), payload); err != nil {
			return err
		}
	}
	return nil
}

// Point is one sample of a figure series.
type Point struct {
	X float64 `json:"x"` // figure's x value (n, m, d, or file count)
	Y float64 `json:"y"` // measured value in Unit
}

// Series is one system's curve.
type Series struct {
	System string  `json:"system"`
	Points []Point `json:"points"`
}

// Result is one regenerated table or figure. Figure-style results fill
// Series; table-style results (Table 1, the RTT analysis) fill Header and
// Rows instead.
type Result struct {
	Experiment string     `json:"experiment"` // e.g. "fig7"
	Title      string     `json:"title"`
	XLabel     string     `json:"xLabel,omitempty"`
	YLabel     string     `json:"yLabel,omitempty"`
	Unit       string     `json:"unit"` // "ms", "objects", "MB", "ratio"
	Series     []Series   `json:"series,omitempty"`
	Header     []string   `json:"header,omitempty"`
	Rows       [][]string `json:"rows,omitempty"`
	Notes      []string   `json:"notes,omitempty"`
}

// ms converts a duration to the float milliseconds the figures plot.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// claims reads a gated experiment's table by column name and collects
// every claim the table breaks, so one run names all of them. Each gated
// experiment returns its check's error beside its table, which h2bench
// prints before it exits nonzero.
type claims struct {
	res    Result
	broken []string
}

// str is row's cell in the named column; a missing cell is itself a
// broken claim.
func (c *claims) str(row []string, name string) string {
	for i, h := range c.res.Header {
		if h == name && i < len(row) {
			return row[i]
		}
	}
	c.check(false, "no %q cell in row %v", name, row)
	return ""
}

// num is row's cell in the named column as a number.
func (c *claims) num(row []string, name string) float64 {
	s := c.str(row, name)
	v, err := strconv.ParseFloat(s, 64)
	c.check(err == nil, "%q cell %q is not a number", name, s)
	return v
}

// check records the claim formatted by format as broken unless ok.
func (c *claims) check(ok bool, format string, args ...any) {
	if !ok {
		c.broken = append(c.broken, fmt.Sprintf(format, args...))
	}
}

// err joins the broken claims into one error, or is nil.
func (c *claims) err() error {
	if len(c.broken) == 0 {
		return nil
	}
	return errors.New(strings.Join(c.broken, "; "))
}
