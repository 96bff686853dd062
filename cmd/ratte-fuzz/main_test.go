package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/difftest"
	"ratte/internal/faultinject"
)

func adhocDefaults() adhocOptions {
	return adhocOptions{preset: "ariths", programs: 8, size: 12, seed: 97, workers: 1}
}

func TestBuildCampaign(t *testing.T) {
	plans, err := compiler.SamplePlans("ariths", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		edit    func(*adhocOptions)
		wantErr string
		check   func(*testing.T, difftest.CampaignConfig, bugs.Set)
	}{
		{name: "bug list with spaces and a trailing comma", edit: func(o *adhocOptions) { o.bugList = " 1, 7 ," },
			check: func(t *testing.T, cfg difftest.CampaignConfig, set bugs.Set) {
				want := bugs.Only(bugs.IndexCastUIFold, bugs.FloorDivSiExpand)
				if !reflect.DeepEqual(set, want) || !reflect.DeepEqual(cfg.Bugs, want) {
					t.Errorf("bugs = %v (cfg %v), want %v", set, cfg.Bugs, want)
				}
			}},
		{name: "bad bug id", edit: func(o *adhocOptions) { o.bugList = "x" }, wantErr: `bad bug id "x"`},
		{name: "coverage with family", edit: func(o *adhocOptions) { o.coverage, o.family = true, 4 },
			wantErr: "-coverage is not supported with -family"},
		{name: "pipelines with family", edit: func(o *adhocOptions) { o.fuzzPipelines, o.family = 4, 4 },
			wantErr: "-fuzz-pipelines and -family are mutually exclusive"},
		{name: "fault rate", edit: func(o *adhocOptions) { o.faultRate, o.faultSeed = 0.02, 5 },
			check: func(t *testing.T, cfg difftest.CampaignConfig, _ bugs.Set) {
				want := &faultinject.Spec{Seed: 5, Rate: 0.02, Kinds: []faultinject.Kind{
					faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay}}
				if !reflect.DeepEqual(cfg.Faults, want) {
					t.Errorf("Faults = %+v, want %+v", cfg.Faults, want)
				}
			}},
		{name: "sampled plans", edit: func(o *adhocOptions) { o.fuzzPipelines, o.planSeed = 4, 1 },
			check: func(t *testing.T, cfg difftest.CampaignConfig, _ bugs.Set) {
				if len(cfg.Plans) != len(plans) {
					t.Fatalf("%d plans, want %d", len(cfg.Plans), len(plans))
				}
				for i := range plans {
					if cfg.Plans[i].Key() != plans[i].Key() {
						t.Errorf("plan %d = %s, want %s", i, cfg.Plans[i].Key(), plans[i].Key())
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := adhocDefaults()
			tc.edit(&o)
			cfg, set, err := buildCampaign(o)
			switch {
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, cfg, set)
			}
		})
	}
}

func TestOpenJournal(t *testing.T) {
	o := adhocDefaults()
	o.resume = true
	cfg, _, err := buildCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openJournal(o, &cfg); err == nil || !strings.Contains(err.Error(), "-resume needs -journal") {
		t.Fatalf("-resume without -journal: err = %v", err)
	}

	o.resume = false
	o.journal = filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(o, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Journal != j {
		t.Fatal("fresh journal not attached to the campaign")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	o.resume = true
	other := o
	other.seed++
	otherCfg, _, err := buildCampaign(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openJournal(other, &otherCfg); err == nil || !strings.Contains(err.Error(), "different campaign config") {
		t.Fatalf("resume under another seed: err = %v, want a header mismatch", err)
	}

	resumeCfg, _, err := buildCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	j, err = openJournal(o, &resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if resumeCfg.Journal != j || resumeCfg.Resumed == nil {
		t.Fatal("resumed journal not attached to the campaign")
	}
}
