package fair

import (
	"fmt"
	"strconv"
	"strings"
)

// Class is one per-tenant QoS tier of the service front end: a human name
// ("gold") bound to the fairness weight its loops are submitted with. The
// policies themselves stay weight-based — a class is purely the service
// tier's naming layer over Candidate.Weight, so the same policies serve
// both hand-assigned weights and tiered tenants.
type Class struct {
	// Name identifies the tier in reports.
	Name string
	// Weight is the fleet share loops of this tier request (>= 1).
	Weight int
}

// ParsePolicy returns a fresh policy of the given name, as Policy.Name reports
// it: "wrr" (with its default quantum) or "fcfs".
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "wrr":
		return NewWeightedRoundRobin(0), nil
	case "fcfs":
		return NewFCFS(), nil
	}
	return nil, fmt.Errorf("fair: unknown policy %q (want wrr or fcfs)", name)
}

// ParseClasses parses a QoS tier list of the form
// "gold:8,silver:4,bronze:1" into ordered classes. Names must be non-empty
// and unique; weights must be positive integers. A single bare name
// ("std") gets weight 1.
func ParseClasses(s string) ([]Class, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("fair: empty QoS class list")
	}
	parts := strings.Split(s, ",")
	classes := make([]Class, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, part := range parts {
		name, weightText, hasWeight := strings.Cut(strings.TrimSpace(part), ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("fair: QoS class %q has no name", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("fair: duplicate QoS class %q", name)
		}
		seen[name] = true
		weight := 1
		if hasWeight {
			w, err := strconv.Atoi(strings.TrimSpace(weightText))
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("fair: QoS class %q has invalid weight %q (want a positive integer)", name, weightText)
			}
			weight = w
		}
		classes = append(classes, Class{Name: name, Weight: weight})
	}
	return classes, nil
}
