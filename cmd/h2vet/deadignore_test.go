package main

import "testing"

func TestDeadignore(t *testing.T) {
	cases := []golden{
		{
			// One live suppression (virtualtime really fires there), one
			// stale one, one typo'd rule name.
			name: "stale and unknown directives reported, live one kept",
			src: `package fake

import "time"

//h2vet:ignore virtualtime injected test clock seam
func now() time.Time { return time.Now() }

//h2vet:ignore virtualtime nothing fires here
func pure(a, b int) int { return a + b }

//h2vet:ignore virtualtme typo'd rule name
func alsoPure(a, b int) int { return a - b }
`,
			want: []string{
				"internal/fake/impl.go:8:1: deadignore: //h2vet:ignore virtualtime suppresses nothing: no virtualtime finding on this line or the next; delete the stale directive",
				"internal/fake/impl.go:11:1: deadignore: //h2vet:ignore virtualtme suppresses nothing: unknown rule (see h2vet -list)",
			},
		},
		{
			// An explicit deadignore suppression keeps a deliberately
			// stale directive (e.g. one kept for a flaky generator).
			name: "deadignore finding is itself suppressible",
			src: `package fake

//h2vet:ignore deadignore directive below guards generated code that sometimes reappears
//h2vet:ignore virtualtime generated code uses wall clock
func pure(a, b int) int { return a + b }
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkProgram(t, map[string]string{"internal/fake/impl.go": tc.src},
				virtualtimeAnalyzer, deadignoreAnalyzer)
			expectDiags(t, got, tc.want)
		})
	}
}
