package ir_test

import (
	"testing"

	"merlin/internal/corpus"
	"merlin/internal/ir"
)

// TestClonePrintsIdenticallyOverCorpus: a clone of every corpus module prints
// byte for byte as its original, and still validates.
func TestClonePrintsIdenticallyOverCorpus(t *testing.T) {
	var specs []*corpus.ProgramSpec
	for _, suite := range [][]*corpus.ProgramSpec{corpus.XDP(), corpus.Sysdig(), corpus.Tetragon(), corpus.Tracee()} {
		specs = append(specs, suite...)
	}
	for _, s := range specs {
		c := ir.Clone(s.Mod)
		if ir.Print(c) != ir.Print(s.Mod) {
			t.Errorf("%s: clone prints differently", s.Name)
		}
		if err := ir.Validate(c); err != nil {
			t.Errorf("%s: clone does not validate: %v", s.Name, err)
		}
	}
}
