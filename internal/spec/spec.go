// Package spec is the one text grammar every knob of a run is written in
// — latency, device, network, churn and fault models, aggregation
// policies, server learning-rate schedules, transports, the runtime name:
//
//	spec = term { "+" term }
//	term = name [ ":" arg { "," arg } ]
//	arg  = number | term
//
// Numbers are Go floats ("inf" included); a leading plus sign is
// accepted, an exponent's is not (1e21, not 1e+21), and neither is ever
// printed.
// A term's trailing argument may itself be a term (byz:0.2,scale:10), and
// a Glued form writes its one integer onto the name (q8). A Family is the
// table of names one knob accepts; Family.Parse is the only lexer and
// arity checker, Term.String the only formatter, so what a parser accepts
// and what a value's String() prints cannot drift apart: every parsed
// value renders to text that parses back to the same value, and that text
// is what run snapshots are fingerprinted with.
//
// The package is a stdlib-only leaf; the families themselves live beside
// the types they build (internal/core, internal/comm).
package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Term is one parsed name[:a,b,...] term.
type Term struct {
	Name string
	Args []float64
	// Sub is a trailing word argument with arguments of its own.
	Sub *Term
	// Glued renders the first argument onto the name: q8, not q:8.
	Glued bool
}

// T builds a plain term.
func T(name string, args ...float64) Term { return Term{Name: name, Args: args} }

// String renders the term in the grammar Parse reads. Numbers print in
// their shortest round-tripping form, without the plus sign of +Inf or
// 1e+21: "+" is the composition separator.
func (t Term) String() string {
	var b strings.Builder
	b.WriteString(t.Name)
	sep := ":"
	if t.Glued {
		sep = ""
	}
	for _, a := range t.Args {
		b.WriteString(sep)
		b.WriteString(strings.ReplaceAll(strconv.FormatFloat(a, 'g', -1, 64), "+", ""))
		sep = ","
	}
	if t.Sub != nil {
		b.WriteString(sep)
		b.WriteString(t.Sub.String())
	}
	return b.String()
}

// Join composes rendered terms with "+".
func Join(terms ...string) string { return strings.Join(terms, "+") }

// Pos says where in a "+" composition a form may stand.
type Pos uint8

const (
	Base   Pos = iota // first term only (the default)
	Either            // anywhere
	Mod               // after a "+" only
)

// Form is one name a family accepts.
type Form struct {
	Name string
	// Min and Max bound the number of numeric arguments (Max < 0 = any).
	Min, Max int
	// Group > 1 makes a non-empty argument list come in groups of that
	// many (tiered:S1,F1,S2,F2,...).
	Group int
	// Sub makes the form take a trailing word argument after its numbers.
	Sub bool
	// Glued writes the form's one integer argument onto its name (q8).
	Glued bool
	// Pos places the form in a composition; Repeat lets it appear more
	// than once; Alone forbids composing it at all ("none").
	Pos    Pos
	Repeat bool
	Alone  bool
}

// Family is the grammar of one knob.
type Family struct {
	// Label names the knob in errors ("latency").
	Label string
	// Empty is the form the empty string stands for ("" = a spec is
	// required).
	Empty string
	Forms []Form
}

// Errorf builds an error about text in this family's voice; the parsers'
// own range checks use it so every rejection reads alike.
func (f *Family) Errorf(text, format string, args ...any) error {
	return fmt.Errorf("%s %q: %s", f.Label, text, fmt.Sprintf(format, args...))
}

// signPlus drops a "+" right after ":" or ",": it cannot start a term
// there, so it is a number's sign (+Inf, +1), not a composition.
var signPlus = strings.NewReplacer(":+", ":", ",+", ",")

// Parse is the lexer: it splits the composition on "+", each term on ":"
// and ",", looks the name up, converts the arguments, and checks arity,
// position and repetition. A name that is not in the table but ends in
// digits is read as a glued form (q8 = q with argument 8); once a Sub
// form has its numbers, the next argument is its trailing word and takes
// the rest of the term. On success it returns at least one term.
func (f *Family) Parse(text string) ([]Term, error) {
	if strings.TrimSpace(text) == "" {
		if f.Empty == "" {
			return nil, f.Errorf(text, "empty spec (%s)", f.names())
		}
		text = f.Empty
	}
	segs := strings.Split(signPlus.Replace(text), "+")
	terms := make([]Term, 0, len(segs))
	seen := map[string]bool{}
	for i, seg := range segs {
		name, rest, hasArgs := strings.Cut(seg, ":")
		t := Term{Name: strings.TrimSpace(name)}
		form := f.form(t.Name)
		if stem := strings.TrimRight(t.Name, "0123456789"); form == nil && stem != t.Name {
			if g := f.form(stem); g != nil && g.Glued {
				n, err := strconv.ParseFloat(t.Name[len(stem):], 64)
				if err != nil {
					return nil, f.Errorf(text, "%s: %v", t.Name, err)
				}
				t, form = Term{Name: stem, Args: []float64{n}, Glued: true}, g
			}
		}
		switch {
		case t.Name == "":
			return nil, f.Errorf(text, "empty segment %d", i+1)
		case form == nil || form.Glued != t.Glued:
			return nil, f.Errorf(text, "unknown %s %q (%s)", f.Label, strings.TrimSpace(name), f.names())
		case form.Alone && len(segs) > 1:
			return nil, f.Errorf(text, "%s composes with nothing", t.Name)
		case i == 0 && form.Pos == Mod:
			return nil, f.Errorf(text, "%s is a modifier, not a base — compose it onto one, as in base+%s", t.Name, t.Name)
		case i > 0 && form.Pos == Base:
			return nil, f.Errorf(text, "%s is a base, not a modifier — only one base per spec", t.Name)
		case seen[t.Name] && !form.Repeat:
			return nil, f.Errorf(text, "duplicate %s", t.Name)
		}
		seen[t.Name] = true
		cur, own := &t, len(t.Args)
		for hasArgs {
			var arg string
			arg, rest, hasArgs = strings.Cut(rest, ",")
			if form.Sub && t.Sub == nil && len(t.Args) == form.Max {
				word, first, ok := strings.Cut(arg, ":")
				t.Sub = &Term{Name: strings.TrimSpace(word)}
				cur = t.Sub
				if !ok && hasArgs {
					return nil, f.Errorf(text, "%s: arguments of %s go after a colon", t.Name, t.Sub.Name)
				} else if !ok {
					break
				}
				arg = first
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return nil, f.Errorf(text, "argument %q is not a number", arg)
			}
			cur.Args = append(cur.Args, v)
		}
		n := len(t.Args) - own // a glued integer is part of the name
		switch {
		case n < form.Min || (form.Max >= 0 && n > form.Max):
			return nil, f.Errorf(text, "%s wants %s, got %d", t.Name, form.arity(), n)
		case form.Group > 1 && n%form.Group != 0:
			return nil, f.Errorf(text, "%s wants args in groups of %d, got %d", t.Name, form.Group, n)
		case form.Sub && (t.Sub == nil || t.Sub.Name == ""):
			return nil, f.Errorf(text, "%s wants %s", t.Name, form.arity())
		}
		terms = append(terms, t)
	}
	return terms, nil
}

func (f *Family) form(name string) *Form {
	for i := range f.Forms {
		if f.Forms[i].Name == name {
			return &f.Forms[i]
		}
	}
	return nil
}

// names lists the family's vocabulary for "unknown X (a|b|c)" errors.
func (f *Family) names() string {
	names := make([]string, len(f.Forms))
	for i, form := range f.Forms {
		names[i] = form.Name
	}
	return strings.Join(names, "|")
}

// arity words a form's argument count for errors.
func (form *Form) arity() string {
	var s string
	switch {
	case form.Max < 0:
		s = fmt.Sprintf("%d or more args", form.Min)
	case form.Min == form.Max:
		s = fmt.Sprintf("%d args", form.Min)
	default:
		s = fmt.Sprintf("%d to %d args", form.Min, form.Max)
	}
	if form.Sub {
		s += " and a mode"
	}
	return s
}
