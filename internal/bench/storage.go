package bench

import (
	"context"
	"fmt"

	"github.com/h2cloud/h2cloud/internal/workload"
)

// DefaultFileCounts is the x-axis for the storage-overhead figures.
var DefaultFileCounts = []int{1000, 5000, 10000, 20000}

// storageSweep builds identical workloads on H2Cloud and Swift and
// returns measure of each system, per file count, after all NameRing
// patches are folded.
func storageSweep(fileCounts []int, measure func(sys *System) float64) (map[string][]Point, error) {
	out := map[string][]Point{}
	for _, files := range fileCounts {
		spec := workload.Spec{
			Seed: 42, Dirs: files / 10, Files: files, MaxDepth: 8,
			DirSkew: 0.8, MeanFileSize: 4 << 10, MaxFileSize: 64 << 10,
		}
		fs := workload.Generate(spec)
		for _, kind := range []string{"h2cloud", "swift"} {
			sys, err := NewSystem(kind)
			if err != nil {
				return nil, err
			}
			if err := fs.Populate(context.Background(), sys.FS, 4096); err != nil {
				return nil, fmt.Errorf("%s: %w", kind, err)
			}
			if sys.MW != nil {
				if err := sys.MW.FlushAll(context.Background()); err != nil {
					return nil, err
				}
			}
			out[kind] = append(out[kind], Point{X: float64(files), Y: measure(sys)})
		}
	}
	return out, nil
}

// Fig14ObjectCount regenerates Figure 14: the number of objects stored by
// H2Cloud versus OpenStack Swift for the same user filesystems. Expected
// shape: H2Cloud clearly higher — every directory adds a directory object
// and a NameRing object.
func Fig14ObjectCount(fileCounts []int) (Result, error) {
	if len(fileCounts) == 0 {
		fileCounts = DefaultFileCounts
	}
	res := Result{
		Experiment: "fig14", Title: "Number of objects (storage overhead)",
		XLabel: "files in filesystem", YLabel: "objects in cloud", Unit: "objects",
	}
	points, err := storageSweep(fileCounts, func(sys *System) float64 {
		return float64(sys.Cluster.Stats().Objects)
	})
	if err != nil {
		return res, err
	}
	for _, kind := range []string{"h2cloud", "swift"} {
		res.Series = append(res.Series, Series{System: DisplayName(kind), Points: points[kind]})
	}
	res.Notes = append(res.Notes,
		"H2Cloud stores one directory object + one NameRing object per directory; Swift stores only files and zero-byte markers (its file-path records live in the separate per-account DB).")
	return res, nil
}

// Fig15ObjectSize regenerates Figure 15: total stored bytes for the same
// workloads. Expected shape: the two curves nearly coincide — directory
// and NameRing objects are sub-kilobyte next to file content.
func Fig15ObjectSize(fileCounts []int) (Result, error) {
	if len(fileCounts) == 0 {
		fileCounts = DefaultFileCounts
	}
	res := Result{
		Experiment: "fig15", Title: "Size of objects (storage overhead)",
		XLabel: "files in filesystem", YLabel: "stored bytes", Unit: "MB",
	}
	points, err := storageSweep(fileCounts, func(sys *System) float64 {
		return float64(sys.Cluster.Stats().Bytes) / (1 << 20)
	})
	if err != nil {
		return res, err
	}
	for _, kind := range []string{"h2cloud", "swift"} {
		res.Series = append(res.Series, Series{System: DisplayName(kind), Points: points[kind]})
	}
	res.Notes = append(res.Notes,
		"File content here is capped at 4 KiB per file (laptop scale); with the paper's ~1 MB average files the relative metadata overhead shrinks by a further ~250x.")
	return res, nil
}

// Headline reproduces the paper's §1 headline numbers for H2Cloud:
// "LISTing 1000 files costs just 0.35 second and COPYing 1000 files costs
// ~10 seconds."
func Headline() (Result, error) {
	res := Result{
		Experiment: "headline", Title: "H2Cloud headline operations (paper §1)",
		XLabel: "operation", YLabel: "time", Unit: "ms",
	}
	sys, err := NewSystem("h2cloud")
	if err != nil {
		return res, err
	}
	if err := populateDir(sys.FS, "/dir", 1000); err != nil {
		return res, err
	}
	list, err := Measure(func(ctx context.Context) error {
		_, err := sys.FS.List(ctx, "/dir", true)
		return err
	})
	if err != nil {
		return res, err
	}
	cp, err := Measure(func(ctx context.Context) error {
		return sys.FS.Copy(ctx, "/dir", "/dir-copy")
	})
	if err != nil {
		return res, err
	}
	res.Series = []Series{
		{System: "LIST 1000 files (paper: ~350 ms)", Points: []Point{{X: 1000, Y: ms(list)}}},
		{System: "COPY 1000 files (paper: ~10000 ms)", Points: []Point{{X: 1000, Y: ms(cp)}}},
	}
	return res, nil
}
