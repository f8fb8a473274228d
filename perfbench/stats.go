package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (R-7, as numpy and the repo's metrics.Quantile use). xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// usOf converts a duration to fractional microseconds.
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// procStatus reads one "Key:   N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) * 1024 / 1e6, nil
}

// resetPeakRSS resets a process's VmHWM to its current RSS, so the next
// reading is the peak since now.
func resetPeakRSS(pid int) error {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 for every architecture Go supports.
const clockTicks = 100

// cpuTime is a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being
	// the 14th and 15th fields of the line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
