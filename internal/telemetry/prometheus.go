package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format this encoder produces (version 0.0.4).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromLabel is one name="value" pair on a Prometheus series.
type PromLabel struct {
	Name  string
	Value string
}

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) without any client-library dependency. It writes one
// `# HELP` / `# TYPE` header per metric family (repeated calls with the same
// name — e.g. one histogram per label value — share the family header), and
// it never emits NaN or ±Inf sample values: non-finite inputs are written as
// 0, so a scrape of a freshly started process is always clean.
//
// Errors are sticky: the first write error is kept and later calls are
// no-ops; check Flush.
type PromWriter struct {
	w    *bufio.Writer
	err  error
	seen map[string]string // family name -> declared type
}

// NewPromWriter returns an exposition writer over w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w), seen: make(map[string]string)}
}

// Counter writes one counter sample. Counter names should end in _total by
// Prometheus convention.
func (p *PromWriter) Counter(name, help string, v uint64, labels ...PromLabel) {
	p.family(name, help, "counter")
	p.sample(name, labels, float64(v))
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...PromLabel) {
	p.family(name, help, "gauge")
	p.sample(name, labels, v)
}

// Histogram writes one histogram series: cumulative _bucket samples (le is
// the inclusive upper bound of each retained power-of-two bucket), the +Inf
// bucket, _sum, and _count. An empty snapshot renders as a valid all-zero
// histogram.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot, labels ...PromLabel) {
	p.family(name, help, "histogram")
	cum := uint64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		p.sample(name+"_bucket", withLabel(labels, PromLabel{"le", strconv.FormatUint(b.Le, 10)}), float64(cum))
	}
	p.sample(name+"_bucket", withLabel(labels, PromLabel{"le", "+Inf"}), float64(s.Count))
	p.sample(name+"_sum", labels, float64(s.Sum))
	p.sample(name+"_count", labels, float64(s.Count))
}

// Flush drains the buffer and returns the first error encountered.
func (p *PromWriter) Flush() error {
	if err := p.w.Flush(); p.err == nil {
		p.err = err
	}
	return p.err
}

// family writes the HELP/TYPE header the first time a family name appears.
func (p *PromWriter) family(name, help, typ string) {
	if p.err != nil {
		return
	}
	if prev, ok := p.seen[name]; ok {
		if prev != typ {
			p.err = fmt.Errorf("telemetry: metric %s redeclared as %s (was %s)", name, typ, prev)
		}
		return
	}
	p.seen[name] = typ
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

func (p *PromWriter) sample(name string, labels []PromLabel, v float64) {
	if p.err != nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, err := p.w.WriteString(name); err != nil {
		p.err = err
		return
	}
	if len(labels) > 0 {
		p.w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.w.WriteByte(',')
			}
			p.w.WriteString(l.Name)
			p.w.WriteString(`="`)
			p.w.WriteString(escapeLabel(l.Value))
			p.w.WriteByte('"')
		}
		p.w.WriteByte('}')
	}
	p.w.WriteByte(' ')
	p.w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.err = p.w.WriteByte('\n')
}

func withLabel(labels []PromLabel, extra PromLabel) []PromLabel {
	out := make([]PromLabel, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, extra)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes HELP text: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// Struct renders the prom-tagged fields of the struct v (or a pointer to
// one) as families named prefix plus the tag's name, so one tagged struct
// declares a metric for both its JSON form (the json tag) and its
// Prometheus form. The tag reads `prom:"NAME{LABELS} HELP"`:
//
//   - A uint64 field is a counter; a signed integer, float or bool field is a
//     gauge (a bool reads 0 or 1); a HistogramSnapshot is a histogram. A
//     string field is a one-hot gauge over the values its last label lists
//     (`state{state=closed|open}`): the series equal to the field reads 1.
//   - LABELS are constant name=value pairs, which let several fields share
//     one family (`faults_total{kind=disk-err}`); HELP may then be left off
//     all but the first of them.
//   - A struct, pointer-to-struct or slice-of-struct field is a section whose
//     NAME prefixes its families; its fields' tags give their HELP. A nil
//     pointer renders nothing. A slice renders family-major, every element's
//     sample of one family before the next family, because the exposition
//     format keeps a family's lines in one group.
//   - A string field tagged `prom:"{name}"` adds the label name="field
//     value" to every family of its struct.
//   - `prom:"-"` keeps a field out of the exposition, and an untagged
//     embedded struct renders in place. Any other untagged exported field is
//     an error, so no field reaches the JSON form alone by accident.
func (p *PromWriter) Struct(prefix string, v any) {
	p.section(prefix, []labeled{{v: reflect.ValueOf(v)}})
}

// labeled is one struct value of a section with the labels it inherits.
type labeled struct {
	v      reflect.Value
	labels []PromLabel
}

var histogramType = reflect.TypeOf(HistogramSnapshot{})

// section renders the fields of same-typed struct values one field, and so
// one family, at a time across all of them.
func (p *PromWriter) section(prefix string, vs []labeled) {
	var live []labeled
	for _, lv := range vs {
		if lv.v.Kind() == reflect.Pointer {
			if lv.v.IsNil() {
				continue
			}
			lv.v = lv.v.Elem()
		}
		live = append(live, lv)
	}
	if len(live) == 0 {
		return
	}
	t := live[0].v.Type()
	for i := 0; i < t.NumField(); i++ {
		if tag := t.Field(i).Tag.Get("prom"); strings.HasPrefix(tag, "{") {
			l := PromLabel{Name: strings.Trim(tag, "{}")}
			for k := range live {
				l.Value = live[k].v.Field(i).String()
				live[k].labels = withLabel(live[k].labels, l)
			}
		}
	}
	for i := 0; i < t.NumField() && p.err == nil; i++ {
		f := t.Field(i)
		tag, tagged := f.Tag.Lookup("prom")
		switch {
		case tag == "-" || strings.HasPrefix(tag, "{") || !f.IsExported() && !f.Anonymous:
			continue
		case !tagged && f.Anonymous:
			p.section(prefix, fieldOf(live, i))
			continue
		case !tagged:
			p.err = fmt.Errorf("telemetry: field %s.%s has no prom tag", t, f.Name)
			return
		}
		spec, text, _ := strings.Cut(tag, " ")
		name, list, _ := strings.Cut(strings.TrimSuffix(spec, "}"), "{")
		var consts []PromLabel
		if list != "" {
			for _, kv := range strings.Split(list, ",") {
				k, v, _ := strings.Cut(kv, "=")
				consts = append(consts, PromLabel{k, v})
			}
		}
		switch ft := f.Type; {
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			var elems []labeled
			for _, lv := range live {
				s := lv.v.Field(i)
				for j := 0; j < s.Len(); j++ {
					elems = append(elems, labeled{s.Index(j), lv.labels})
				}
			}
			p.section(prefix+name, elems)
		case ft.Kind() == reflect.Struct && ft != histogramType ||
			ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct:
			p.section(prefix+name, fieldOf(live, i))
		default:
			for _, lv := range live {
				p.leaf(prefix+name, text, lv.v.Field(i), append(append([]PromLabel(nil), lv.labels...), consts...))
			}
		}
	}
}

// leaf writes the sample, or for a one-hot string the samples, of one field.
func (p *PromWriter) leaf(name, help string, v reflect.Value, labels []PromLabel) {
	switch {
	case v.Type() == histogramType:
		p.Histogram(name, help, v.Interface().(HistogramSnapshot), labels...)
	case v.CanUint():
		p.Counter(name, help, v.Uint(), labels...)
	case v.CanInt():
		p.Gauge(name, help, float64(v.Int()), labels...)
	case v.CanFloat():
		p.Gauge(name, help, v.Float(), labels...)
	case v.Kind() == reflect.Bool:
		p.Gauge(name, help, oneIf(v.Bool()), labels...)
	case v.Kind() == reflect.String && len(labels) > 0:
		n := len(labels) - 1
		for _, val := range strings.Split(labels[n].Value, "|") {
			p.Gauge(name, help, oneIf(v.String() == val), append(labels[:n:n], PromLabel{labels[n].Name, val})...)
		}
	default:
		p.err = fmt.Errorf("telemetry: metric %s has unsupported type %s", name, v.Type())
	}
}

func fieldOf(vs []labeled, i int) []labeled {
	out := make([]labeled, len(vs))
	for k, lv := range vs {
		out[k] = labeled{lv.v.Field(i), lv.labels}
	}
	return out
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
