// Package workload generates synthetic user filesystems and operation
// traces reproducing the population the paper evaluates on (§5.1).
//
// The paper hosted ~150 real users' filesystems: "light" users with a few
// shallow directories and hundreds of files, and "heavy" users with
// thousands of directories and up to millions of files; files per
// directory range from zero to nearly half a million, directory depth
// from zero to more than 20, and file sizes from sub-kilobyte configs to
// gigabyte videos. Those users are not available, so this package
// produces seeded filesystems with the same stated shape, scaled to fit a
// single machine (sizes above the content cap are generated as metadata
// only).
package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

// Spec parameterizes one synthetic user filesystem.
type Spec struct {
	Seed     int64
	Dirs     int // number of directories (excluding the root)
	Files    int // number of files
	MaxDepth int // maximum directory depth
	// DirSkew shapes how files clump into directories: 0 spreads files
	// uniformly; higher values concentrate them into a few huge
	// directories (the paper saw up to ~half a million files in one).
	DirSkew float64
	// MeanFileSize and MaxFileSize shape the lognormal-ish size
	// distribution (sizes are metadata; content written is capped).
	MeanFileSize int64
	MaxFileSize  int64
}

// LightUser mirrors the paper's light population: several shallow
// directories and hundreds of files.
func LightUser(seed int64) Spec {
	return Spec{
		Seed: seed, Dirs: 12, Files: 300, MaxDepth: 4,
		DirSkew: 0.5, MeanFileSize: 64 << 10, MaxFileSize: 8 << 20,
	}
}

// File is one generated file: a path and a logical size.
type File struct {
	Path string
	Size int64
}

// Filesystem is one generated user tree. Dirs is ordered parents-first so
// it can be created by sequential MKDIRs.
type Filesystem struct {
	Dirs  []string
	Files []File
}

// Generate builds a filesystem from a spec. Generation is deterministic
// per seed.
func Generate(spec Spec) *Filesystem {
	rng := rand.New(rand.NewSource(spec.Seed))
	if spec.MaxDepth < 1 {
		spec.MaxDepth = 1
	}
	if spec.MeanFileSize <= 0 {
		spec.MeanFileSize = 64 << 10
	}
	if spec.MaxFileSize < spec.MeanFileSize {
		spec.MaxFileSize = spec.MeanFileSize
	}

	type dirInfo struct {
		path  string
		depth int
	}
	dirs := []dirInfo{{path: "/", depth: 0}}
	deepest := 0 // index of the deepest directory so far
	out := &Filesystem{}
	for i := 0; i < spec.Dirs; i++ {
		// Parent selection mixes three habits seen in real trees: keep
		// drilling down the deepest chain (the paper's >20-deep users),
		// extend a recently created directory, or branch anywhere.
		var parent dirInfo
		for try := 0; ; try++ {
			var idx int
			switch r := rng.Float64(); {
			case r < 0.20:
				idx = deepest
			case r < 0.70:
				idx = len(dirs) - 1 - rng.Intn((len(dirs)+3)/4)
			default:
				idx = rng.Intn(len(dirs))
			}
			if idx < 0 {
				idx = rng.Intn(len(dirs))
			}
			parent = dirs[idx]
			if parent.depth < spec.MaxDepth || try > 8 {
				break
			}
		}
		if parent.depth >= spec.MaxDepth {
			parent = dirs[0]
		}
		path := fsapi.Join(parent.path, fmt.Sprintf("dir%05d", i))
		dirs = append(dirs, dirInfo{path: path, depth: parent.depth + 1})
		if parent.depth+1 > dirs[deepest].depth {
			deepest = len(dirs) - 1
		}
		out.Dirs = append(out.Dirs, path)
	}

	// Zipf-ish weights concentrate files into a few directories.
	weights := make([]float64, len(dirs))
	total := 0.0
	for i := range dirs {
		w := 1.0
		if spec.DirSkew > 0 {
			w = 1.0 / math.Pow(float64(i+1), spec.DirSkew)
		}
		weights[i] = w
		total += w
	}
	// Cumulative distribution for sampling.
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	pick := func() string {
		x := rng.Float64()
		idx := sort.SearchFloat64s(cum, x)
		if idx >= len(dirs) {
			idx = len(dirs) - 1
		}
		return dirs[idx].path
	}

	for i := 0; i < spec.Files; i++ {
		size := int64(float64(spec.MeanFileSize) * lognormalish(rng))
		if size < 16 {
			size = 16
		}
		if size > spec.MaxFileSize {
			size = spec.MaxFileSize
		}
		out.Files = append(out.Files, File{
			Path: fsapi.Join(pick(), fmt.Sprintf("file%06d.dat", i)),
			Size: size,
		})
	}
	return out
}

// lognormalish produces a positive multiplier with median ~0.5 and a long
// tail, approximating the paper's mix of tiny configs and huge videos.
func lognormalish(rng *rand.Rand) float64 {
	return math.Exp(rng.NormFloat64()*1.6 - 0.7)
}

// Stats summarizes a generated filesystem.
type Stats struct {
	Dirs       int
	Files      int
	MaxDepth   int
	MaxPerDir  int
	TotalBytes int64
}

// Stats computes summary statistics.
func (f *Filesystem) Stats() Stats {
	st := Stats{Dirs: len(f.Dirs), Files: len(f.Files)}
	perDir := map[string]int{}
	for _, d := range f.Dirs {
		if dep := fsapi.Depth(d); dep > st.MaxDepth {
			st.MaxDepth = dep
		}
	}
	for _, fl := range f.Files {
		if dep := fsapi.Depth(fl.Path); dep > st.MaxDepth {
			st.MaxDepth = dep
		}
		dir, _, _ := fsapi.Split(fl.Path)
		perDir[dir]++
		st.TotalBytes += fl.Size
	}
	for _, n := range perDir {
		if n > st.MaxPerDir {
			st.MaxPerDir = n
		}
	}
	return st
}

// Populate creates the filesystem on a target. File content is synthetic
// and capped at contentCap bytes (0 means 256) — logical sizes above the
// cap exist as metadata only, keeping gigabyte videos out of laptop RAM.
func (f *Filesystem) Populate(ctx context.Context, target fsapi.FileSystem, contentCap int) error {
	if contentCap <= 0 {
		contentCap = 256
	}
	for _, d := range f.Dirs {
		if err := target.Mkdir(ctx, d); err != nil {
			return fmt.Errorf("workload: mkdir %s: %w", d, err)
		}
	}
	buf := make([]byte, contentCap)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	for _, fl := range f.Files {
		n := int(fl.Size)
		if n > contentCap {
			n = contentCap
		}
		if err := target.WriteFile(ctx, fl.Path, buf[:n]); err != nil {
			return fmt.Errorf("workload: write %s: %w", fl.Path, err)
		}
	}
	return nil
}
