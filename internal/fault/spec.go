package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses the CLI fault-spec mini-language used by
// `cmd/osmosis -faults`. A spec is a comma-separated list of clauses:
//
//	rx:E[.R]@START[+DUR]        receiver R of egress E lost (R defaults
//	                            to the highest — the redundant receiver)
//	soaoff:E[.R[.G]]@START[+DUR] fiber gate G of egress E / receiver R's
//	                            module stuck off (R defaults high, G to 0)
//	soaon:E[.R[.G]]@START[+DUR]  same gate stuck on (crosstalk fault)
//	stall:N@START               scheduler pipeline frozen for N slots
//	rand:K@LO-HI[+DUR]          K random receiver/gate faults with start
//	                            slots uniform in [LO,HI)
//
// START and DUR are packet-cycle slots; omitting +DUR makes the fault
// permanent. Example:
//
//	rx:3@2000,stall:50@4000,rand:4@1000-8000
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return Spec{}, fmt.Errorf("fault: clause %q: want kind:target@start", clause)
		}
		var err error
		switch name {
		case "rx":
			err = parseTargeted(&spec, ReceiverLoss, rest, clause)
		case "soaoff":
			err = parseTargeted(&spec, SOAStuckOff, rest, clause)
		case "soaon":
			err = parseTargeted(&spec, SOAStuckOn, rest, clause)
		case "stall":
			err = parseStall(&spec, rest, clause)
		case "rand":
			err = parseRand(&spec, rest, clause)
		default:
			err = fmt.Errorf("fault: clause %q: unknown kind %q", clause, name)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	return spec, nil
}

// splitTiming splits "body@start[+dur]" and parses the slot fields.
func splitTiming(rest, clause string) (body string, start, dur uint64, err error) {
	body, timing, ok := strings.Cut(rest, "@")
	if !ok {
		return "", 0, 0, fmt.Errorf("fault: clause %q: missing @start", clause)
	}
	startStr, durStr, hasDur := strings.Cut(timing, "+")
	start, err = strconv.ParseUint(startStr, 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("fault: clause %q: bad start slot %q", clause, startStr)
	}
	if hasDur {
		dur, err = strconv.ParseUint(durStr, 10, 64)
		if err != nil || dur == 0 {
			return "", 0, 0, fmt.Errorf("fault: clause %q: bad duration %q", clause, durStr)
		}
	}
	return body, start, dur, nil
}

// parseTargeted handles rx/soaoff/soaon clauses: E[.R[.G]].
func parseTargeted(spec *Spec, kind Kind, rest, clause string) error {
	body, start, dur, err := splitTiming(rest, clause)
	if err != nil {
		return err
	}
	parts := strings.Split(body, ".")
	if len(parts) < 1 || len(parts) > 3 || (kind == ReceiverLoss && len(parts) > 2) {
		return fmt.Errorf("fault: clause %q: want egress[.receiver[.gate]]", clause)
	}
	e := Event{Kind: kind, Start: start, Duration: dur, Receiver: ReceiverHighest}
	if e.Egress, err = strconv.Atoi(parts[0]); err != nil {
		return fmt.Errorf("fault: clause %q: bad egress %q", clause, parts[0])
	}
	if len(parts) > 1 {
		if e.Receiver, err = strconv.Atoi(parts[1]); err != nil {
			return fmt.Errorf("fault: clause %q: bad receiver %q", clause, parts[1])
		}
	}
	if len(parts) > 2 {
		if e.Gate, err = strconv.Atoi(parts[2]); err != nil {
			return fmt.Errorf("fault: clause %q: bad gate %q", clause, parts[2])
		}
	}
	spec.Events = append(spec.Events, e)
	return nil
}

// parseStall handles stall clauses: N@START.
func parseStall(spec *Spec, rest, clause string) error {
	body, start, _, err := splitTiming(rest, clause)
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(body, 10, 64)
	if err != nil || n == 0 {
		return fmt.Errorf("fault: clause %q: bad stall length %q", clause, body)
	}
	spec.Events = append(spec.Events, Event{Kind: SchedStall, Start: start, Duration: n})
	return nil
}

// parseRand handles rand clauses: K@LO-HI[+DUR].
func parseRand(spec *Spec, rest, clause string) error {
	if spec.RandomCount > 0 {
		return fmt.Errorf("fault: clause %q: at most one rand clause per spec", clause)
	}
	body, window, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("fault: clause %q: want count@lo-hi", clause)
	}
	count, err := strconv.Atoi(body)
	if err != nil || count <= 0 {
		return fmt.Errorf("fault: clause %q: bad count %q", clause, body)
	}
	winStr, durStr, hasDur := strings.Cut(window, "+")
	loStr, hiStr, ok := strings.Cut(winStr, "-")
	if !ok {
		return fmt.Errorf("fault: clause %q: want a lo-hi slot window", clause)
	}
	lo, err := strconv.ParseUint(loStr, 10, 64)
	if err != nil {
		return fmt.Errorf("fault: clause %q: bad window start %q", clause, loStr)
	}
	hi, err := strconv.ParseUint(hiStr, 10, 64)
	if err != nil || hi <= lo {
		return fmt.Errorf("fault: clause %q: bad window end %q", clause, hiStr)
	}
	var dur uint64
	if hasDur {
		if dur, err = strconv.ParseUint(durStr, 10, 64); err != nil || dur == 0 {
			return fmt.Errorf("fault: clause %q: bad duration %q", clause, durStr)
		}
	}
	spec.RandomCount = count
	spec.WindowStart, spec.WindowEnd = lo, hi
	spec.RandomDuration = dur
	return nil
}
