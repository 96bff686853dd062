package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cost is what one stretch of work consumed in this process.
type cost struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	alloc uint64        // heap bytes allocated
	seeds int
	// stolen is the share of the machine's busy CPU time that the
	// hypervisor ran other guests instead (steal time); 0 when the
	// kernel does not report it.
	stolen float64
}

// runWall is the wall time the host let the machine run: wall time
// less the stolen share. On an unshared machine it equals wall.
func (c cost) runWall() time.Duration {
	return time.Duration(float64(c.wall) * (1 - c.stolen))
}

// snapshot is a point on the clocks a cost is measured with.
type snapshot struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	host  hostCPU
}

func snap() snapshot {
	return snapshot{at: time.Now(), cpu: cpuTime(), alloc: readUint("/gc/heap/allocs:bytes"), host: readHostCPU()}
}

// since is the cost from s to now.
func (s snapshot) since() cost {
	n := snap()
	busy, steal := n.host.busy-s.host.busy, n.host.steal-s.host.steal
	return cost{wall: n.at.Sub(s.at), cpu: n.cpu - s.cpu, alloc: n.alloc - s.alloc,
		stolen: ratio(float64(steal), float64(busy+steal))}
}

// hostCPU is the kernel's CPU time summed over the machine's CPUs, in
// clock ticks: busy is user, nice, system, irq and softirq time; steal
// is time a runnable virtual CPU waited for the hypervisor. An idle
// virtual CPU is halted and accrues no steal, so steal/(busy+steal) is
// the share of a busy CPU's wall time that other guests took.
type hostCPU struct{ busy, steal uint64 }

// readHostCPU reads the "cpu" line of /proc/stat; zero where there is
// none, which turns the steal correction off.
func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if err != nil || len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var t [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range t {
		if t[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return hostCPU{}
		}
	}
	return hostCPU{busy: t[0] + t[1] + t[2] + t[5] + t[6], steal: t[7]}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gcStats is the runtime's cumulative GC accounting.
type gcStats struct {
	cycles        uint64
	gcCPU, allCPU float64 // seconds
}

func readGC() gcStats {
	return gcStats{
		cycles: readUint("/gc/cycles/total:gc-cycles"),
		gcCPU:  readFloat("/cpu/classes/gc/total:cpu-seconds"),
		allCPU: readFloat("/cpu/classes/total:cpu-seconds"),
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
