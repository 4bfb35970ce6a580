package bench

import (
	"context"
	"fmt"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

// DefaultNs is the paper's x-axis for Figures 7–9 and 11: the number of
// files in the directory, 10 to 100,000.
var DefaultNs = []int{10, 100, 1000, 10000, 100000}

// DefaultMs is the x-axis of Figure 10: direct children per directory.
var DefaultMs = []int{10, 100, 1000, 10000, 100000}

// DefaultDepths is the x-axis of Figure 13: directory depth 0–20.
var DefaultDepths = []int{1, 2, 4, 8, 12, 16, 20}

// sweep measures op once per x on a fresh instance of every figure
// system, after setup has built that x's tree, and returns res with one
// series per system.
func sweep(res Result, xs []int, setup func(fs fsapi.FileSystem, x int) error,
	op func(ctx context.Context, fs fsapi.FileSystem, x int) error) (Result, error) {
	if len(xs) == 0 {
		xs = DefaultNs
	}
	for _, kind := range FigureKinds {
		series := Series{System: DisplayName(kind)}
		for _, x := range xs {
			sys, err := NewSystem(kind)
			if err != nil {
				return res, err
			}
			if err := setup(sys.FS, x); err != nil {
				return res, err
			}
			d, err := Measure(func(ctx context.Context) error { return op(ctx, sys.FS, x) })
			if err != nil {
				return res, err
			}
			series.Points = append(series.Points, Point{X: float64(x), Y: ms(d)})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Fig7Move regenerates Figure 7: MOVE (and RENAME, its special case)
// operation time as the number of files n in the moved directory grows.
// Expected shape: Swift grows linearly with n; H2Cloud and DP stay flat.
func Fig7Move(ns []int) (Result, error) {
	return sweep(Result{
		Experiment: "fig7", Title: "Operation time for MOVE and RENAME",
		XLabel: "files in directory (n)", YLabel: "operation time", Unit: "ms",
	}, ns, func(fs fsapi.FileSystem, n int) error {
		if err := populateDir(fs, fmt.Sprintf("/move-%d", n), n); err != nil {
			return err
		}
		return fs.Mkdir(bg(), "/target")
	}, func(ctx context.Context, fs fsapi.FileSystem, n int) error {
		return fs.Move(ctx, fmt.Sprintf("/move-%d", n), "/target/moved")
	})
}

// Fig8Rmdir regenerates Figure 8: RMDIR operation time versus n.
// Expected shape: Swift linear, H2Cloud and DP flat.
func Fig8Rmdir(ns []int) (Result, error) {
	return sweep(Result{
		Experiment: "fig8", Title: "Operation time for RMDIR",
		XLabel: "files in directory (n)", YLabel: "operation time", Unit: "ms",
	}, ns, func(fs fsapi.FileSystem, n int) error {
		return populateDir(fs, fmt.Sprintf("/rm-%d", n), n)
	}, func(ctx context.Context, fs fsapi.FileSystem, n int) error {
		return fs.Rmdir(ctx, fmt.Sprintf("/rm-%d", n))
	})
}

// Fig9ListVsN regenerates Figure 9: detailed LIST of a directory with
// m=1000 children while the total filesystem size n grows. Expected
// shape: LIST depends on m, not n — all three curves stay roughly flat,
// with Swift above DP ≈ H2 by its logN factor.
func Fig9ListVsN(ns []int, m int) (Result, error) {
	if m <= 0 {
		m = 1000
	}
	return sweep(Result{
		Experiment: "fig9", Title: fmt.Sprintf("Operation time for LIST (m=%d children) vs filesystem size", m),
		XLabel: "files in filesystem (n)", YLabel: "operation time", Unit: "ms",
	}, ns, func(fs fsapi.FileSystem, n int) error {
		if err := populateDir(fs, "/listed", m); err != nil {
			return err
		}
		return populateDir(fs, "/bulk", n)
	}, listDetailed)
}

// Fig10ListVsM regenerates Figure 10: detailed LIST versus the number of
// direct children m. Expected shape: all three grow with m, Swift
// steepest (O(m·logN)).
func Fig10ListVsM(msizes []int) (Result, error) {
	if len(msizes) == 0 {
		msizes = DefaultMs
	}
	return sweep(Result{
		Experiment: "fig10", Title: "Operation time for LIST vs direct children",
		XLabel: "direct children (m)", YLabel: "operation time", Unit: "ms",
	}, msizes, func(fs fsapi.FileSystem, m int) error {
		return populateDir(fs, "/listed", m)
	}, listDetailed)
}

// listDetailed is the measured operation of Figures 9 and 10.
func listDetailed(ctx context.Context, fs fsapi.FileSystem, _ int) error {
	_, err := fs.List(ctx, "/listed", true)
	return err
}

// Fig11Copy regenerates Figure 11: COPY operation time versus n.
// Expected shape: all three systems similar and linear in n.
func Fig11Copy(ns []int) (Result, error) {
	return sweep(Result{
		Experiment: "fig11", Title: "Operation time for COPY",
		XLabel: "files in directory (n)", YLabel: "operation time", Unit: "ms",
	}, ns, func(fs fsapi.FileSystem, n int) error {
		return populateDir(fs, fmt.Sprintf("/copy-%d", n), n)
	}, func(ctx context.Context, fs fsapi.FileSystem, n int) error {
		dir := fmt.Sprintf("/copy-%d", n)
		return fs.Copy(ctx, dir, dir+"-copy")
	})
}

// Fig12Mkdir regenerates Figure 12: MKDIR operation time at growing
// filesystem sizes. Expected shape: constant for every system; Swift the
// fastest, H2Cloud and DP within the 150–200 ms band the paper reports.
func Fig12Mkdir(ns []int) (Result, error) {
	return sweep(Result{
		Experiment: "fig12", Title: "Operation time for MKDIR",
		XLabel: "files in filesystem (n)", YLabel: "operation time", Unit: "ms",
	}, ns, func(fs fsapi.FileSystem, n int) error {
		return populateDir(fs, "/bulk", n)
	}, func(ctx context.Context, fs fsapi.FileSystem, _ int) error {
		return fs.Mkdir(ctx, "/fresh")
	})
}

// Fig13Access regenerates Figure 13: file-access (lookup) time versus the
// file's directory depth d. Expected shape: Swift flat and lowest
// (full-path hash), H2Cloud linear in d (one NameRing per level), DP flat
// with fluctuations at partition crossings.
func Fig13Access(depths []int) (Result, error) {
	if len(depths) == 0 {
		depths = DefaultDepths
	}
	res := Result{
		Experiment: "fig13", Title: "Operation time for file access (lookup)",
		XLabel: "directory depth (d)", YLabel: "operation time", Unit: "ms",
	}
	for _, kind := range FigureKinds {
		sys, err := NewSystem(kind)
		if err != nil {
			return res, err
		}
		// Build one deep path, measuring at each requested depth.
		maxD := depths[len(depths)-1]
		path := ""
		files := map[int]string{}
		for d := 1; d <= maxD; d++ {
			path += fmt.Sprintf("/l%d", d)
			if err := sys.FS.Mkdir(bg(), path); err != nil {
				return res, err
			}
			file := path + "/probe.dat"
			if err := sys.FS.WriteFile(bg(), file, []byte("x")); err != nil {
				return res, err
			}
			files[d+1] = file // the file sits one level below directory d
		}
		series := Series{System: DisplayName(kind)}
		for _, d := range depths {
			file, ok := files[d]
			if !ok {
				// Depth 1: a file directly under the root.
				file = "/root-probe.dat"
				if _, err := sys.FS.Stat(bg(), file); err != nil {
					if err := sys.FS.WriteFile(bg(), file, []byte("x")); err != nil {
						return res, err
					}
				}
			}
			dur, err := Measure(func(ctx context.Context) error {
				_, err := sys.FS.Stat(ctx, file)
				return err
			})
			if err != nil {
				return res, err
			}
			series.Points = append(series.Points, Point{X: float64(d), Y: ms(dur)})
		}
		res.Series = append(res.Series, series)
	}
	res.Notes = append(res.Notes,
		"Workload-average depth is 4; the paper reports H2Cloud ~61 ms there vs Swift's flat ~10 ms.")
	return res, nil
}
