package gen

import (
	"math/rand"
	"strings"
	"testing"

	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
)

// A generated program passes at all five points, and one gathered element
// moved at any one point fails the run with that point's name.
func TestCheckNamesThePointThatDiffers(t *testing.T) {
	src, _ := Program(rand.New(rand.NewSource(1)))
	c, err := Compile(Case{Src: src, Entry: "step", Procs: 3, Blk: 2})
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if outs, err := Check(c, c.Config()); err != nil || len(outs) != 5 {
		t.Fatalf("%d outcomes, %v\n%s", len(outs), err, src)
	}
	for _, point := range []string{"rtr", "ctr", "opt3/blk=2"} {
		_, err := check(c, c.Config(), func(p string, out *exec.SPMDOutcome) {
			if p == point {
				vals, defined := out.Arrays["New"].Snapshot()
				vals[2][3]++
				moved, _ := istruct.NewMatrix("New", int64(len(vals)), int64(len(vals[0])))
				for i := range vals {
					for j := range vals[i] {
						if defined[i][j] {
							moved.Write(int64(i+1), int64(j+1), vals[i][j])
						}
					}
				}
				out.Arrays["New"] = moved
			}
		})
		if want := point + ": output array New: element (3,4) is "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s perturbed: %v, want %q…", point, err, want)
		}
	}
}

// Cost scaling, a metamorphic relation over the corpus: every machine cost
// multiplied by 3 multiplies every process's clock by 3, at every point of
// every case, on its own machine (multiplexed ones too).
func TestCostScaling(t *testing.T) {
	cases, err := CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if err := CheckScaled(c, c.Config(), 3); err != nil {
			t.Errorf("%s S=%d: %v\n%s", c.Name, c.Procs, err, c.Src)
		}
	}
	t.Logf("%d cases", len(cases))
}
