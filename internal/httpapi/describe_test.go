package httpapi

import (
	"runtime/debug"
	"testing"
)

// TestDescribeBuildSpellsGitDescribe: a stamped build is named the way
// git describe --always --dirty names an untagged tree, and a build with no
// stamp (go run, go test) is not named at all, so GitDescribe asks git.
func TestDescribeBuildSpellsGitDescribe(t *testing.T) {
	const rev = "ecc65fb8be63c259a24114032e141e2a44ec4703"
	for _, tc := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{[]debug.BuildSetting{{Key: "vcs", Value: "git"}, {Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: "false"}}, "ecc65fb"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: rev}}, "ecc65fb-dirty"},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: rev}}, "ecc65fb"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
		{[]debug.BuildSetting{{Key: "-compiler", Value: "gc"}}, ""},
		{nil, ""},
	} {
		if got := describeBuild(&debug.BuildInfo{Settings: tc.settings}); got != tc.want {
			t.Errorf("settings %v: described as %q, want %q", tc.settings, got, tc.want)
		}
	}
}
