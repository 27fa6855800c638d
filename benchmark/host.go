package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	wanted float64 // time the guest had work to run: everything but idle and iowait
	steal  float64 // the part of it the hypervisor gave to somebody else
}

// readCPUStat returns the zero value where /proc/stat is missing or odd; the
// steal fraction then reads 0, which is what a bare-metal host would report.
func readCPUStat() cpuStat {
	text, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(text), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user.
	var st cpuStat
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuStat{}
		}
		if i != 3 && i != 4 {
			st.wanted += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealFrac is the stolen share of the CPU time the guest wanted between two
// readings.
func stealFrac(a, b cpuStat) float64 {
	if b.wanted <= a.wanted {
		return 0
	}
	return (b.steal - a.steal) / (b.wanted - a.wanted)
}
