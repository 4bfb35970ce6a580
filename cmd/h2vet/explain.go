package main

import (
	"fmt"
	"io"
)

// explain prints what -explain shows for one rule: the one-line Doc and
// the Long text.
func explain(w io.Writer, a *Analyzer) {
	fmt.Fprintf(w, "%s — %s\n\n%s\n", a.Name, a.Doc, a.Long)
}

func analyzerByName(name string) *Analyzer {
	for _, a := range allAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
