package cliopt

import (
	"flag"
	"testing"

	deepmd "deepmd-go"
)

// parse binds the shared flags on a fresh FlagSet, parses args, and
// resolves the options into a plan via Open on a tiny model.
func parse(t *testing.T, args ...string) (*Set, deepmd.Plan, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Bind(fs, 2)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	opts, err := s.Options()
	if err != nil {
		return s, deepmd.Plan{}, err
	}
	model, err := deepmd.NewModel(deepmd.TinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := deepmd.Open(model, opts...)
	if err != nil {
		return s, deepmd.Plan{}, err
	}
	return s, eng.Plan(), nil
}

func TestFlagTranslation(t *testing.T) {
	_, p, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if p.Precision != deepmd.Double || p.Strategy != deepmd.Batched || p.Workers != 2 || p.GemmWorkers != 2 {
		t.Fatalf("default plan %+v", p)
	}

	_, p, err = parse(t, "-precision", "mixed", "-strategy", "peratom", "-workers", "4", "-gemm-workers", "3", "-concurrency", "5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Precision != deepmd.Mixed || p.Strategy != deepmd.PerAtom || p.Workers != 4 || p.GemmWorkers != 3 || p.MaxConcurrency != 5 {
		t.Fatalf("explicit plan %+v", p)
	}
}

func TestSpellingErrors(t *testing.T) {
	for _, prec := range []string{"quad", "baseline"} {
		if _, _, err := parse(t, "-precision", prec); err == nil {
			t.Fatalf("unknown precision %q accepted", prec)
		}
	}
	if _, _, err := parse(t, "-strategy", "turbo"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
