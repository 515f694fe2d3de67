package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LintProm validates a Prometheus text exposition document — the in-repo
// linter behind the CI smoke test's /metrics scrape. It checks what a real
// scraper would choke on:
//
//   - HELP/TYPE comment lines are well-formed and each family is typed once;
//   - each family's lines form one group: no line of a family follows a
//     line of another family after the family's own lines began;
//   - every sample line parses (metric name, optional labels, float value)
//     with legal metric and label name characters;
//   - every sample belongs to a declared family (histogram samples may use
//     the _bucket/_sum/_count suffixes of a histogram-typed family);
//   - no sample value is NaN or ±Inf — a fresh daemon must scrape clean;
//   - histogram buckets are cumulative (non-decreasing in document order per
//     label set) and every bucket series ends with le="+Inf" equal to _count.
func LintProm(data []byte) error {
	l := promLint{
		types:   make(map[string]string),
		ended:   make(map[string]bool),
		buckets: make(map[string]float64),
		infs:    make(map[string]float64),
		counts:  make(map[string]float64),
	}
	for i, line := range strings.Split(string(data), "\n") {
		if err := l.line(line); err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	return l.finish()
}

type promLint struct {
	types   map[string]string  // family -> type
	group   string             // family of the current line group
	ended   map[string]bool    // families whose group is over
	buckets map[string]float64 // family + label set (minus le) -> last cumulative count
	infs    map[string]float64 // family + label set -> +Inf bucket value
	counts  map[string]float64 // family + label set -> _count value
}

func (l *promLint) line(line string) error {
	line = strings.TrimRight(line, "\r")
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return l.comment(line)
	}
	return l.sample(line)
}

func (l *promLint) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment, ignored by scrapers
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
		return l.enter(fields[2])
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validMetricName(name) {
			return fmt.Errorf("bad metric name %q in TYPE", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if prev, ok := l.types[name]; ok {
			return fmt.Errorf("family %s retyped as %s (was %s)", name, typ, prev)
		}
		l.types[name] = typ
		return l.enter(name)
	}
	return nil
}

// enter moves to the line group of family, which must not have ended.
func (l *promLint) enter(family string) error {
	if family == l.group {
		return nil
	}
	if l.ended[family] {
		return fmt.Errorf("family %s is split: its lines resume after another family's", family)
	}
	l.ended[l.group] = true
	l.group = family
	return nil
}

func (l *promLint) sample(line string) error {
	name, labels, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	if !validMetricName(name) {
		return fmt.Errorf("bad metric name %q", name)
	}
	valueField := strings.Fields(rest)
	if len(valueField) < 1 || len(valueField) > 2 {
		return fmt.Errorf("expected value [timestamp] after %q, got %q", name, rest)
	}
	v, err := strconv.ParseFloat(valueField[0], 64)
	if err != nil {
		return fmt.Errorf("bad sample value %q: %v", valueField[0], err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s has non-finite value %q", name, valueField[0])
	}

	family, suffix := name, ""
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, sfx)
		if base != name && l.types[base] == "histogram" {
			family, suffix = base, sfx
			break
		}
	}
	typ, ok := l.types[family]
	if !ok {
		return fmt.Errorf("sample %s has no TYPE declaration", name)
	}
	if err := l.enter(family); err != nil {
		return err
	}
	if typ != "histogram" {
		return nil
	}
	if suffix == "" {
		return fmt.Errorf("histogram family %s has a bare sample %s", family, name)
	}

	le, key := "", family
	for _, lb := range labels {
		if lb.Name == "le" {
			le = lb.Value
			continue
		}
		key += "|" + lb.Name + "=" + lb.Value
	}
	switch suffix {
	case "_bucket":
		if le == "" {
			return fmt.Errorf("%s_bucket sample without le label", family)
		}
		if v < l.buckets[key] {
			return fmt.Errorf("%s buckets not cumulative: le=%q dropped to %v", family, le, v)
		}
		l.buckets[key] = v
		if le == "+Inf" {
			l.infs[key] = v
		} else if _, err := strconv.ParseFloat(le, 64); err != nil {
			return fmt.Errorf("%s has unparsable le %q", family, le)
		}
	case "_count":
		l.counts[key] = v
	}
	return nil
}

func (l *promLint) finish() error {
	for key, count := range l.counts {
		inf, ok := l.infs[key]
		if !ok {
			return fmt.Errorf("histogram series %s has no le=\"+Inf\" bucket", key)
		}
		if inf != count {
			return fmt.Errorf("histogram series %s: +Inf bucket %v != count %v", key, inf, count)
		}
	}
	for key := range l.infs {
		if _, ok := l.counts[key]; !ok {
			return fmt.Errorf("histogram series %s has buckets but no _count", key)
		}
	}
	return nil
}

// splitSample splits a sample line into name, labels, and the value rest.
func splitSample(line string) (name string, labels []PromLabel, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample %q has no value", line)
		}
		return line[:sp], nil, line[sp+1:], nil
	}
	name = line[:brace]
	i := brace + 1
	for {
		if i >= len(line) {
			return "", nil, "", fmt.Errorf("unterminated label set in %q", line)
		}
		if line[i] == '}' {
			i++
			break
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 {
			return "", nil, "", fmt.Errorf("label without '=' in %q", line)
		}
		lname := line[i : i+eq]
		if !validLabelName(lname) {
			return "", nil, "", fmt.Errorf("bad label name %q", lname)
		}
		i += eq + 1
		if i >= len(line) || line[i] != '"' {
			return "", nil, "", fmt.Errorf("unquoted label value in %q", line)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(line) {
				return "", nil, "", fmt.Errorf("unterminated label value in %q", line)
			}
			c := line[i]
			if c == '\\' && i+1 < len(line) {
				switch line[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, "", fmt.Errorf("bad escape \\%c in %q", line[i+1], line)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, PromLabel{lname, val.String()})
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return "", nil, "", fmt.Errorf("no value after label set in %q", line)
	}
	return name, labels, line[i+1:], nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			i > 0 && '0' <= c && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			i > 0 && '0' <= c && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}
