package spec

import (
	"math"
	"strings"
	"testing"
)

// toy exercises every Form feature in one family.
var toy = Family{Label: "toy", Empty: "none", Forms: []Form{
	{Name: "none", Alone: true},
	{Name: "plain"},
	{Name: "one", Min: 1, Max: 1},
	{Name: "opt", Max: 2},
	{Name: "pairs", Max: -1, Group: 2},
	{Name: "w", Glued: true},
	{Name: "mode", Min: 1, Max: 1, Sub: true, Pos: Either},
	{Name: "again", Min: 1, Max: 1, Pos: Either, Repeat: true},
	{Name: "mod", Pos: Mod},
}}

func TestParseAcceptsAndRenders(t *testing.T) {
	for text, want := range map[string]string{
		"":                         "none",
		"  ":                       "none",
		"plain":                    "plain",
		" one : 2.50 ":             "one:2.5",
		"opt":                      "opt",
		"opt:1,2":                  "opt:1,2",
		"pairs":                    "pairs",
		"pairs:1,2,3,4":            "pairs:1,2,3,4",
		"w8":                       "w8",
		"w08+mod":                  "w8+mod",
		"mode:0.5,nan":             "mode:0.5,nan", // after its numbers a Sub form reads a word, even one that spells a float
		"mode:0.5, scale : 1e21":   "mode:0.5,scale:1e21",
		"one:inf":                  "one:Inf",
		"one:+Inf":                 "one:Inf", // a sign right after ":" or "," is not a composition
		"opt:+1,+2+mod":            "opt:1,2+mod",
		"plain+again:1+again:2":    "plain+again:1+again:2",
		"again:3+mode:1,x:1,2,3":   "again:3+mode:1,x:1,2,3",
		"one:-0":                   "one:-0",
		"one:0x1p-2":               "one:0.25",
		"one:1_000":                "one:1000",
		"plain+mod":                "plain+mod",
		"one:4.9406564584124e-324": "one:5e-324",
	} {
		ts, err := toy.Parse(text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
			continue
		}
		parts := make([]string, len(ts))
		for i, term := range ts {
			parts[i] = term.String()
		}
		if got := Join(parts...); got != want {
			t.Errorf("Parse(%q) renders %q, want %q", text, got, want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for text, part := range map[string]string{
		"warp":                         "unknown toy \"warp\" (none|plain|one|opt|pairs|w|mode|again|mod)",
		"w":                            "unknown toy \"w\"",
		"plain8":                       "unknown toy \"plain8\"",
		"wx":                           "unknown toy",
		"plain+":                       "empty segment 2",
		"+mod":                         "empty segment 1",
		"none+mod":                     "none composes with nothing",
		"mod":                          "mod is a modifier, not a base",
		"plain+one:1":                  "one is a base, not a modifier",
		"plain+mod+mod":                "duplicate mod",
		"one":                          "one wants 1 args, got 0",
		"one:1,2":                      "one wants 1 args, got 2",
		"one:":                         "argument \"\" is not a number",
		"one:x":                        "argument \"x\" is not a number",
		"one:1e+5":                     "argument \"1e\" is not a number", // "+" composes terms; an exponent carries no plus sign
		"opt:1,2,3":                    "opt wants 0 to 2 args, got 3",
		"pairs:1,2,3":                  "groups of 2",
		"w8:1":                         "w wants 0 args, got 1",
		"mode:1":                       "mode wants 1 args and a mode",
		"mode:1,":                      "mode wants 1 args and a mode",
		"mode:1,x,2":                   "arguments of x go after a colon",
		"mode:1,x:y":                   "argument \"y\" is not a number",
		"mode:x":                       "argument \"x\" is not a number",
		"one:1e999":                    "is not a number",
		"w" + strings.Repeat("9", 400): "out of range", // the glued integer is converted, not trusted
	} {
		_, err := toy.Parse(text)
		if err == nil {
			t.Errorf("Parse(%q) accepted", text)
		} else if !strings.Contains(err.Error(), part) {
			t.Errorf("Parse(%q) error %q, want it to mention %q", text, err, part)
		}
	}
	required := Family{Label: "req", Forms: []Form{{Name: "a"}, {Name: "b"}}}
	if _, err := required.Parse(""); err == nil || !strings.Contains(err.Error(), "empty spec (a|b)") {
		t.Errorf("a family with no Empty form accepted \"\": %v", err)
	}
}

// The formatter is the lexer's inverse on numbers: shortest form, no plus
// sign, NaN and the infinities included.
func TestTermStringNumbers(t *testing.T) {
	term := T("n", 1e21, math.Inf(1), math.Inf(-1), 0.1, 100)
	if got, want := term.String(), "n:1e21,Inf,-Inf,0.1,100"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	ts, err := (&Family{Label: "n", Forms: []Form{{Name: "n", Max: -1}}}).Parse(term.String())
	if err != nil || ts[0].String() != term.String() {
		t.Fatalf("reparse: %v, %v", ts, err)
	}
}
