package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExperimentsDocumented keeps the experiment list and EXPERIMENTS.md in
// step: every experiment has a section whose heading names its -exp flag,
// and every -exp a heading names is an experiment this command runs.
func TestExperimentsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	flagRe := regexp.MustCompile("`-exp ([a-z0-9-]+)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
		if !documented[e.name] {
			t.Errorf("experiment %q has no EXPERIMENTS.md heading naming `-exp %s`", e.name, e.name)
		}
	}
	for name := range documented {
		if !slices.Contains(names, name) {
			t.Errorf("EXPERIMENTS.md heading names `-exp %s`, which is no experiment", name)
		}
	}
}
