package crossbar

// Golden fingerprints for the single-stage engine: every Metrics field
// and every degradation Epoch, rendered bit-exactly, for a spread of
// configurations that exercise each branch of Step. A refactor of the
// switch core must reproduce these strings byte for byte.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// runningCount reads a collector's observation count from its
// checkpoint record, the one place a Running exposes it.
func runningCount(r *stats.Running) uint64 {
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	r.SaveState(e)
	if e.Close() != nil {
		return 0
	}
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		return 0
	}
	return d.Record("running").Uint()
}

// goldenFingerprint renders m and epochs with floats in hexadecimal
// significand form, in the style of fabric.Metrics.Fingerprint.
func goldenFingerprint(m *Metrics, epochs []Epoch) string {
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	sample := func(s *stats.LatencySample) string {
		if s.N() == 0 {
			return "empty"
		}
		return fmt.Sprintf("n=%d mean=%s sd=%s min=%s max=%s p50=%s p99=%s",
			s.N(), hex(float64(s.Mean())), hex(s.StdDev()),
			hex(float64(s.Min())), hex(float64(s.Max())),
			hex(float64(s.Quantile(0.5))), hex(float64(s.Quantile(0.99))))
	}
	running := func(r *stats.Running) string {
		n := runningCount(r)
		if n == 0 {
			return "empty"
		}
		return fmt.Sprintf("n=%d mean=%s sd=%s min=%s max=%s",
			n, hex(r.Mean()), hex(r.StdDev()), hex(r.Min()), hex(r.Max()))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d delivered=%d drop=%d slots=%d lat[%s] ctl[%s] grant[%s] maxvoq=%d maxeg=%d viol=%d rej=%d src=%v/%v cyc=%d",
		m.Offered, m.Delivered, m.Dropped, m.MeasureSlots,
		sample(&m.Latency), sample(&m.ControlLatency), running(&m.GrantLatency),
		m.MaxVOQDepth, m.MaxEgressDepth, m.OrderViolations, m.ReceiverRejects,
		m.SrcOffered, m.SrcDelivered, int64(m.CycleTime))
	// The crossbar is lossless and epochs keep no drop counter; the
	// pinned drop column reads 0.
	for _, e := range epochs {
		fmt.Fprintf(&b, " epoch[%d,%d) off=%d del=%d drop=0 rej=%d mean=%s p99=%s down=%d faults=%d",
			e.FromSlot, e.ToSlot, e.Offered, e.Delivered, e.ReceiverRejects,
			hex(e.MeanSlots), hex(e.P99Slots), e.ReceiversDown, e.ActiveFaults)
	}
	return b.String()
}

// TestGoldenCrossbar pins the engine's exact output. The fingerprints
// were recorded from the engine with its own private VOQ, egress and
// demand-bit copies, before the switch core moved into internal/voq.
func TestGoldenCrossbar(t *testing.T) {
	const n = 16
	uniform := func(load float64, seed uint64) traffic.Config {
		return traffic.Config{Kind: traffic.KindUniform, N: n, Load: load, ControlShare: 0.1, Seed: seed}
	}
	flppr := func() sched.Scheduler { return sched.NewFLPPR(n, 0) }
	islip := func() sched.Scheduler { return sched.NewISLIP(n, 0) }
	pipelined := func() sched.Scheduler { return sched.NewPipelinedISLIP(n, 0) }
	run := func(t *testing.T, cfg Config, mk func() sched.Scheduler, tcfg traffic.Config, spec string, cuts []uint64) string {
		t.Helper()
		cfg.NewScheduler = mk
		var sw *Switch
		if spec != "" {
			sw = buildFaulted(t, cfg, spec, 7)
		} else {
			var err error
			if sw, err = New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		gens, err := traffic.Build(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		m, epochs, err := sw.RunEpochs(gens, 300, 2000, cuts)
		if err != nil {
			t.Fatal(err)
		}
		return goldenFingerprint(m, epochs)
	}
	cases := []struct {
		name   string
		got    func(t *testing.T) string
		pinned string
	}{
		{"flppr-r1", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 1}, flppr, uniform(0.9, 1), "", nil)
		}, "offered=28832 delivered=28811 drop=0 slots=2000 lat[n=28811 mean=0x1.0e3e4p+19 sd=0x1.e806e821e3d0fp+18 min=0x1.9p+15 max=0x1.4b4p+22 p50=0x1.9p+18 p99=0x1.324p+21] ctl[n=2872 mean=0x1.62368p+18 sd=0x1.0cdd48b19cee2p+18 min=0x1.9p+15 max=0x1.388p+21 p50=0x1.f4p+17 p99=0x1.45p+20] grant[n=28811 mean=0x1.59e94559ee1b9p+03 sd=0x1.3856571fedf55p+03 min=0x1p+00 max=0x1.a8p+06] maxvoq=20 maxeg=0 viol=0 rej=0 src=[1785 1827 1815 1800 1776 1790 1813 1804 1812 1784 1794 1798 1812 1810 1794 1818]/[1782 1828 1816 1797 1780 1785 1813 1802 1811 1785 1791 1793 1805 1808 1799 1816] cyc=51200 epoch[300,2300) off=28832 del=28811 drop=0 rej=0 mean=0x1.59e947ae147aep+03 p99=0x1.88p+05 down=0 faults=0"},
		{"flppr-r2", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 2}, flppr, uniform(0.95, 2), "", nil)
		}, "offered=30377 delivered=30350 drop=0 slots=2000 lat[n=30350 mean=0x1.f7f74p+18 sd=0x1.7776ffc7ca0edp+18 min=0x1.9p+15 max=0x1.45p+21 p50=0x1.9p+18 p99=0x1.e78p+20] ctl[n=3030 mean=0x1.f2d84p+18 sd=0x1.7cd7df75ce783p+18 min=0x1.9p+15 max=0x1.324p+21 p50=0x1.9p+18 p99=0x1.f06p+20] grant[n=30376 mean=0x1.2462f9984e34fp+01 sd=0x1.8992559f32a2p-01 min=0x1p+00 max=0x1.cp+02] maxvoq=3 maxeg=49 viol=0 rej=0 src=[1891 1905 1897 1896 1894 1886 1894 1885 1903 1908 1910 1895 1893 1914 1909 1897]/[1890 1905 1897 1892 1897 1881 1889 1880 1898 1906 1910 1896 1888 1919 1907 1895] cyc=51200 epoch[300,2300) off=30377 del=30350 drop=0 rej=0 mean=0x1.4289c28f5c28fp+03 p99=0x1.38p+05 down=0 faults=0"},
		{"islip-r1", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 1}, islip, uniform(0.9, 3), "", nil)
		}, "offered=28870 delivered=28809 drop=0 slots=2000 lat[n=28809 mean=0x1.120b4p+19 sd=0x1.27bd59f86ea64p+19 min=0x1.9p+15 max=0x1.c84p+22 p50=0x1.5ep+18 p99=0x1.644p+21] ctl[n=2839 mean=0x1.100ccp+18 sd=0x1.8c4848379169bp+17 min=0x1.9p+15 max=0x1.2cp+20 p50=0x1.9p+17 p99=0x1.a9p+19] grant[n=28809 mean=0x1.5ec6a3e0af717p+03 sd=0x1.7a8bf8483bb5dp+03 min=0x1p+00 max=0x1.24p+07] maxvoq=20 maxeg=0 viol=0 rej=0 src=[1797 1799 1804 1791 1800 1793 1816 1817 1798 1801 1819 1795 1799 1820 1805 1816]/[1793 1796 1799 1783 1803 1789 1813 1815 1796 1798 1820 1788 1798 1815 1797 1806] cyc=51200 epoch[300,2300) off=28870 del=28809 drop=0 rej=0 mean=0x1.5ec6b851eb852p+03 p99=0x1.c8p+05 down=0 faults=0"},
		{"islip-r2", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 2}, islip, uniform(0.95, 4), "", nil)
		}, "offered=30422 delivered=30369 drop=0 slots=2000 lat[n=30369 mean=0x1.f6624p+18 sd=0x1.7cbc4046dd75bp+18 min=0x1.9p+15 max=0x1.3ecp+21 p50=0x1.9p+18 p99=0x1.9c8p+20] ctl[n=3003 mean=0x1.f0ab8p+18 sd=0x1.749e60e42624cp+18 min=0x1.9p+15 max=0x1.0ccp+21 p50=0x1.9p+18 p99=0x1.838p+20] grant[n=30421 mean=0x1.1083d0f9c3aa3p+01 sd=0x1.add28852fc91dp+00 min=0x1p+00 max=0x1.7p+04] maxvoq=4 maxeg=43 viol=0 rej=0 src=[1900 1920 1896 1903 1898 1901 1902 1908 1900 1914 1899 1894 1904 1907 1888 1888]/[1898 1910 1891 1896 1893 1899 1907 1902 1900 1909 1892 1890 1905 1906 1890 1881] cyc=51200 epoch[300,2300) off=30422 del=30369 drop=0 rej=0 mean=0x1.41868f5c28f5cp+03 p99=0x1.08p+05 down=0 faults=0"},
		{"pipelined-r1", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 1}, pipelined, uniform(0.9, 5), "", nil)
		}, "offered=28810 delivered=28805 drop=0 slots=2000 lat[n=28805 mean=0x1.5d484p+19 sd=0x1.26c78c81ac916p+19 min=0x1.9p+15 max=0x1.86ap+22 p50=0x1.f4p+18 p99=0x1.77p+21] ctl[n=2883 mean=0x1.6c0c4p+18 sd=0x1.a001cca0f73cap+17 min=0x1.9p+15 max=0x1.dbp+20 p50=0x1.2cp+18 p99=0x1.f4p+19] grant[n=28805 mean=0x1.bf14ce269fd5cp+03 sd=0x1.795157b0390c8p+03 min=0x1p+00 max=0x1.f4p+06] maxvoq=21 maxeg=0 viol=0 rej=0 src=[1806 1816 1795 1807 1807 1810 1791 1787 1798 1798 1800 1828 1784 1789 1799 1795]/[1807 1817 1796 1810 1809 1810 1787 1787 1800 1795 1797 1826 1780 1792 1795 1797] cyc=51200 epoch[300,2300) off=28810 del=28805 drop=0 rej=0 mean=0x1.bf14ccccccccdp+03 p99=0x1.ep+05 down=0 faults=0"},
		{"pipelined-r2", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 2}, pipelined, uniform(0.95, 6), "", nil)
		}, "offered=30404 delivered=30333 drop=0 slots=2000 lat[n=30333 mean=0x1.55826p+19 sd=0x1.fb3c4f72beb2cp+18 min=0x1.9p+15 max=0x1.e14p+21 p50=0x1.f4p+18 p99=0x1.45p+21] ctl[n=3048 mean=0x1.42276p+19 sd=0x1.ed21f239ff047p+18 min=0x1.9p+15 max=0x1.964p+21 p50=0x1.f4p+18 p99=0x1.388p+21] grant[n=30403 mean=0x1.4551c91df363ep+02 sd=0x1.bdc73f48ee6ecp+00 min=0x1p+00 max=0x1.ap+04] maxvoq=7 maxeg=65 viol=0 rej=0 src=[1897 1882 1898 1912 1895 1906 1893 1886 1914 1899 1891 1893 1915 1906 1911 1906]/[1892 1874 1893 1907 1897 1902 1887 1881 1911 1893 1886 1887 1912 1900 1909 1902] cyc=51200 epoch[300,2300) off=30404 del=30333 drop=0 rej=0 mean=0x1.b521c28f5c28fp+03 p99=0x1.ap+05 down=0 faults=0"},
		{"ideal-oq", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 2, IdealOQ: true}, nil, uniform(0.9, 7), "", nil)
		}, "offered=28828 delivered=28819 drop=0 slots=2000 lat[n=28819 mean=0x1.1ddacp+18 sd=0x1.12147070146d4p+18 min=0x1.9p+15 max=0x1.9p+20 p50=0x1.9p+17 p99=0x1.518p+20] ctl[n=2833 mean=0x1.1cbbcp+18 sd=0x1.0e8e0bf8e62d2p+18 min=0x1.9p+15 max=0x1.838p+20 p50=0x1.9p+17 p99=0x1.518p+20] grant[empty] maxvoq=0 maxeg=31 viol=0 rej=0 src=[1815 1797 1788 1798 1822 1792 1809 1809 1789 1790 1837 1798 1788 1815 1782 1799]/[1809 1802 1790 1794 1818 1797 1805 1809 1789 1790 1835 1801 1783 1815 1783 1799] cyc=51200 epoch[300,2300) off=28828 del=28819 drop=0 rej=0 mean=0x1.6de4ccccccccdp+02 p99=0x1.bp+04 down=0 faults=0"},
		{"rtt4-flppr", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 2, ControlRTTCycles: 4}, flppr, uniform(0.9, 8), "", nil)
		}, "offered=28797 delivered=28811 drop=0 slots=2000 lat[n=28811 mean=0x1.f9424p+18 sd=0x1.048c03e3ddd34p+18 min=0x1.9p+15 max=0x1.194p+21 p50=0x1.c2p+18 p99=0x1.9b4p+20] ctl[n=2880 mean=0x1.d5838p+18 sd=0x1.0c20ad6c9aabp+18 min=0x1.9p+15 max=0x1.194p+21 p50=0x1.9p+18 p99=0x1.838p+20] grant[n=28797 mean=0x1.73f2067439b73p+02 sd=0x1.f9bdf30b8338bp-01 min=0x1p+00 max=0x1p+04] maxvoq=7 maxeg=38 viol=0 rej=0 src=[1804 1767 1809 1773 1796 1791 1813 1799 1808 1788 1802 1823 1821 1789 1791 1823]/[1804 1765 1808 1781 1792 1792 1814 1802 1812 1788 1803 1825 1823 1785 1790 1827] cyc=51200 epoch[300,2300) off=28797 del=28811 drop=0 rej=0 mean=0x1.435d99999999ap+03 p99=0x1.0733333333333p+05 down=0 faults=0"},
		{"rtt4-pipelined", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 2, ControlRTTCycles: 4}, pipelined, uniform(0.9, 9), "", nil)
		}, "offered=28805 delivered=28815 drop=0 slots=2000 lat[n=28815 mean=0x1.37a38p+19 sd=0x1.cea41e4653ed4p+17 min=0x1.9p+15 max=0x1.f4p+20 p50=0x1.13p+19 p99=0x1.5ep+20] ctl[n=2872 mean=0x1.04cfcp+19 sd=0x1.de04cb1329cep+17 min=0x1.9p+15 max=0x1.a9p+20 p50=0x1.f4p+18 p99=0x1.3c2p+20] grant[n=28801 mean=0x1.1485ca79148e2p+03 sd=0x1.c37173a88f60cp+00 min=0x1p+00 max=0x1.9p+04] maxvoq=10 maxeg=28 viol=0 rej=0 src=[1808 1792 1819 1798 1807 1802 1808 1813 1782 1801 1794 1786 1800 1818 1790 1787]/[1806 1797 1820 1799 1803 1803 1807 1812 1782 1803 1797 1790 1801 1818 1788 1789] cyc=51200 epoch[300,2300) off=28805 del=28815 drop=0 rej=0 mean=0x1.8ee5c28f5c28fp+03 p99=0x1.cp+04 down=0 faults=0"},
		{"rx-loss-stall", func(t *testing.T) string {
			return run(t, Config{N: n, Receivers: 2, ControlRTTCycles: 2}, flppr, uniform(0.9, 11),
				"rx:3@800,rx:5.1@1200+400,stall:50@1500", []uint64{800, 1200, 1500, 1600})
		}, "offered=28759 delivered=28632 drop=0 slots=2000 lat[n=28632 mean=0x1.c927cp+19 sd=0x1.48b26296b6c3fp+20 min=0x1.9p+15 max=0x1.b26p+23 p50=0x1.c2p+18 p99=0x1.da08p+22] ctl[n=2934 mean=0x1.3b74ep+19 sd=0x1.2f130228e5266p+19 min=0x1.9p+15 max=0x1.3ecp+22 p50=0x1.9p+18 p99=0x1.57cp+21] grant[n=28665 mean=0x1.71e642f6788bp+03 sd=0x1.8a808ef2eea0fp+04 min=0x1p+00 max=0x1.16p+08] maxvoq=51 maxeg=52 viol=0 rej=2 src=[1789 1793 1805 1775 1799 1778 1796 1824 1823 1809 1793 1792 1805 1820 1773 1785]/[1778 1789 1784 1771 1793 1775 1791 1814 1814 1798 1789 1784 1800 1807 1763 1782] cyc=51200 epoch[300,800) off=7173 del=7157 drop=0 rej=0 mean=0x1.f90fae147ae14p+02 p99=0x1.ep+04 down=0 faults=0 epoch[800,1200) off=5762 del=5772 drop=0 rej=2 mean=0x1.f5e051eb851ecp+02 p99=0x1.7p+04 down=1 faults=1 epoch[1200,1500) off=4356 del=4336 drop=0 rej=0 mean=0x1.08f7851eb851fp+03 p99=0x1.6p+04 down=2 faults=2 epoch[1500,1600) off=1429 del=791 drop=0 rej=0 mean=0x1.4695851eb851fp+05 p99=0x1.60ccccccccccdp+06 down=2 faults=2 epoch[1600,2300) off=10039 del=10576 drop=0 rej=0 mean=0x1.0b7fccccccccdp+05 p99=0x1.8cp+07 down=1 faults=1"},
		{"replicate3", func(t *testing.T) string {
			m, err := Replicate(Config{N: n, Receivers: 2, NewScheduler: flppr},
				traffic.Config{Kind: traffic.KindBimodal, N: n, Load: 0.8, Seed: 12}, 3, 300, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return goldenFingerprint(m, nil)
		}, "offered=76859 delivered=76870 drop=0 slots=6000 lat[n=76870 mean=0x1.44148p+17 sd=0x1.c3bc02ece5847p+16 min=0x1.9p+15 max=0x1.068p+20 p50=0x1.2cp+17 p99=0x1.13p+19] ctl[n=3914 mean=0x1.3fd38p+17 sd=0x1.c029b2a02debcp+16 min=0x1.9p+15 max=0x1.068p+20 p50=0x1.2cp+17 p99=0x1.13p+19] grant[n=76857 mean=0x1.6fee258686042p+00 sd=0x1.1567a7edc3caap-01 min=0x1p+00 max=0x1.4p+02] maxvoq=3 maxeg=19 viol=0 rej=0 src=[4802 4768 4836 4825 4822 4863 4808 4764 4886 4752 4867 4771 4769 4747 4786 4793]/[4808 4771 4831 4826 4819 4864 4809 4762 4889 4754 4869 4768 4765 4750 4789 4796] cyc=51200"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.got(t); got != tc.pinned {
				t.Errorf("crossbar output diverged from the pinned fingerprint:\n  pin: %s\n  got: %s", tc.pinned, got)
			}
		})
	}
}
