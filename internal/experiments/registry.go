package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// All returns the full experiment suite in canonical order E1..E17.
func All() []Experiment {
	return []Experiment{
		expE01(), expE02(), expE03(), expE04(), expE05(), expE06(),
		expE07(), expE08(), expE09(), expE10(), expE11(), expE12(),
		expE13(), expE14(), expE15(), expE16(), expE17(),
	}
}

// Extensions returns the extension suite X1..X8: studies beyond the
// paper's theorems (its §4 future work, design ablations, and quantitative
// complements). They are not part of All() — the paper suite stays the
// paper suite — and are run via cmd/experiments -run X<n>, or all of
// them with -run ext (-run all,ext for the full reproduction report).
func Extensions() []Experiment {
	return []Experiment{expX01(), expX02(), expX03(), expX04(), expX05(), expX06(), expX07(), expX08()}
}

// Get returns the experiment with the given ID (case-insensitive, with or
// without the leading "E"/"X"; bare numbers resolve to the paper suite).
func Get(id string) (Experiment, bool) {
	norm := strings.ToUpper(strings.TrimSpace(id))
	if norm == "" {
		return Experiment{}, false
	}
	if norm[0] != 'E' && norm[0] != 'X' {
		norm = "E" + norm
	}
	// Strip leading zeros after the prefix so "E01" matches "E1".
	if num, err := strconv.Atoi(norm[1:]); err == nil {
		norm = fmt.Sprintf("%c%d", norm[0], num)
	}
	pool := All()
	if norm[0] == 'X' {
		pool = Extensions()
	}
	for _, e := range pool {
		if e.ID == norm {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted list of experiment identifiers.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool {
		ni, _ := strconv.Atoi(ids[i][1:])
		nj, _ := strconv.Atoi(ids[j][1:])
		return ni < nj
	})
	return ids
}
