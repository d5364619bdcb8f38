package server

import (
	"fmt"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Prometheus text exposition for GET /metrics: the same MetricsDoc the
// JSON form serialises, rendered from its field tags (see MetricsDoc) in
// the text format a Prometheus scraper ingests natively. Selected with
// ?format=prometheus, or by content negotiation when the Accept header
// asks for text/plain or OpenMetrics (a scraper's default Accept does; a
// browser's or curl's does not, so the human-facing JSON stays the
// default).

func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func writePrometheus(w http.ResponseWriter, doc MetricsDoc) {
	var b strings.Builder
	for _, f := range promFamilies(nil, reflect.ValueOf(doc)) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// promFamily is one HELP/TYPE header and the sample lines under it.
type promFamily struct {
	name, help, typ string
	samples         []string
}

// promFamilies appends the families of struct v's tagged fields, in field
// order, descending into untagged struct fields (sections).
func promFamilies(out []*promFamily, v reflect.Value) []*promFamily {
	swap := false
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		tag, ok := f.Tag.Lookup("prom")
		if !ok {
			if f.Type.Kind() == reflect.Struct {
				out = promFamilies(out, fv)
			}
			continue
		}
		name, opt, _ := strings.Cut(tag, ",")
		fam := &promFamily{name: "aheft_" + name, help: f.Tag.Get("help")}
		label := f.Tag.Get("label")
		switch x := fv.Interface().(type) {
		case uint64:
			fam.typ = "counter"
			fam.add(label, strconv.FormatUint(x, 10))
		case int, int64, float64:
			fam.typ = "gauge"
			fam.add(label, fmt.Sprintf("%g", fv.Convert(reflect.TypeFor[float64]()).Float()))
		case LatencyMs:
			fam.typ = "summary"
			fam.summary(label, x)
		case map[string]uint64:
			fam.typ = "counter"
			for _, k := range slices.Sorted(maps.Keys(x)) {
				fam.add(label+"="+k, strconv.FormatUint(x[k], 10))
			}
		case map[string]int:
			fam.typ = "gauge"
			for _, k := range slices.Sorted(maps.Keys(x)) {
				fam.add(label+"="+k, strconv.Itoa(x[k]))
			}
		case []int:
			fam.typ = "gauge"
			for i, d := range x {
				fam.add(label+"="+strconv.Itoa(i), strconv.Itoa(d))
			}
		case TriggerMs:
			out = summaries(out, fam, label, x.keys(), x)
			continue
		case map[string]LatencyMs:
			out = summaries(out, fam, label, slices.Sorted(maps.Keys(x)), x)
			continue
		default:
			panic(fmt.Sprintf("server: /metrics field %s has no Prometheus form", f.Name))
		}
		if last := len(out) - 1; last >= 0 && fam.typ != "summary" && out[last].name == fam.name {
			out[last].samples = append(out[last].samples, fam.samples...)
			slices.Sort(out[last].samples)
		} else {
			out = append(out, fam)
		}
		if swap {
			n := len(out)
			out[n-2], out[n-1] = out[n-1], out[n-2]
		}
		swap = opt == "next"
	}
	return out
}

// summaries appends one summary family per key of m, in keys order.
func summaries(out []*promFamily, proto *promFamily, label string, keys []string, m map[string]LatencyMs) []*promFamily {
	for _, k := range keys {
		if s, ok := m[k]; ok {
			fam := &promFamily{name: proto.name, help: proto.help, typ: "summary"}
			fam.summary(label+"="+k, s)
			out = append(out, fam)
		}
	}
	return out
}

// add appends one sample; label is "" or "name=value".
func (f *promFamily) add(label, value string) {
	f.samples = append(f.samples, f.name+promLabels(label, "")+" "+value)
}

// summary appends a latency window's quantile samples and its _count (the
// window's lifetime total, not a sum of buckets).
func (f *promFamily) summary(label string, s LatencyMs) {
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
		f.samples = append(f.samples, fmt.Sprintf("%s%s %g", f.name, promLabels(label, q.q), q.v))
	}
	f.samples = append(f.samples, fmt.Sprintf("%s_count%s %d", f.name, promLabels(label, ""), s.Count))
}

// promLabels renders the label set {name="value",quantile="q"}, either
// part optional.
func promLabels(label, quantile string) string {
	var parts []string
	if k, v, ok := strings.Cut(label, "="); ok {
		parts = append(parts, fmt.Sprintf("%s=%q", k, v))
	}
	if quantile != "" {
		parts = append(parts, fmt.Sprintf("quantile=%q", quantile))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
