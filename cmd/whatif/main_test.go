package main

import (
	"bytes"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		want    string
		wantErr string
	}{
		{
			name: "sample",
			args: []string{"-workload", "sample", "-clock", "10"},
			want: `workflow fig4-sample (10 jobs), pool 3 at t=10.0
query: add 1, remove 0 resource(s) at t=10.0

current plan makespan:           80.00
hypothetical makespan:           87.00
delta:                           +7.00 (+8.8%)
verdict: the adaptive planner would KEEP the current schedule
`,
		},
		{
			name: "blast",
			args: []string{"-workload", "blast", "-jobs", "100", "-seed", "1"},
			want: `workflow blast-x49 (100 jobs), pool 10 at t=988.9
query: add 1, remove 0 resource(s) at t=988.9

current plan makespan:         3955.55
hypothetical makespan:         3878.44
delta:                          -77.12 (-1.9%)
verdict: the adaptive planner WOULD adopt the new schedule
`,
		},
		{
			name: "wien2k remove",
			args: []string{"-workload", "wien2k", "-jobs", "100", "-seed", "2", "-remove", "r1"},
			want: `workflow wien2k-x46 (100 jobs), pool 10 at t=716.7
query: add 1, remove 1 resource(s) at t=716.7

current plan makespan:         2866.81
hypothetical makespan:         2914.50
delta:                          +47.69 (+1.7%)
verdict: the adaptive planner would KEEP the current schedule
`,
		},
		{
			name:    "unknown resource",
			args:    []string{"-workload", "sample", "-clock", "10", "-remove", "r9"},
			wantErr: `resource "r9" not in the pool at t=10`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != tc.want {
				t.Fatalf("stdout:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
