// Command merlin-bench regenerates the paper's tables and figures from the
// reproduction corpus. Each subcommand prints one artifact; "all" runs
// everything. The -full flag disables suite sampling (slow but exhaustive).
//
// End-to-end build and serving throughput is measured by bench/ (see
// BENCHMARK.json), not here.
//
// Usage:
//
//	merlin-bench [-full] <table1|table2|table3|table4|table5|
//	                      fig10a|fig10b|fig10c|fig10d|fig10e|fig10f|
//	                      fig11|fig12|fig13a|fig13b|fig14|fig15|all>
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"merlin/internal/core"
	"merlin/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run on the full suites (no sampling)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: merlin-bench [-full] <experiment|all>")
		os.Exit(1)
	}
	cfg := experiments.DefaultConfig()
	if *full {
		cfg = experiments.Full()
	}
	cmd := flag.Arg(0)
	cmds := map[string]func(experiments.Config) error{
		"table1": table1, "table2": table2, "table3": table3,
		"table4": table4, "table5": table5,
		"fig10a": figCompact("sysdig"), "fig10b": figCompact("tracee"),
		"fig10c": figCompact("tetragon"), "fig10d": figCompact("xdp"),
		"fig10e": fig10e, "fig10f": fig10f,
		"fig11": fig11, "fig12": fig12,
		"fig13a": fig13a, "fig13b": fig13b,
		"fig14": fig14, "fig15": fig15,
	}
	if cmd == "all" {
		names := make([]string, 0, len(cmds))
		for n := range cmds {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("==================== %s ====================\n", n)
			if err := cmds[n](cfg); err != nil {
				fmt.Fprintf(os.Stderr, "merlin-bench: %s: %v\n", n, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	fn, ok := cmds[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "merlin-bench: unknown experiment %q\n", cmd)
		os.Exit(1)
	}
	if err := fn(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "merlin-bench:", err)
		os.Exit(1)
	}
}

func table1(cfg experiments.Config) error {
	rows, err := experiments.Table1(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 1: Details of Benchmarks")
	fmt.Printf("%-10s %8s %9s %10s %9s %6s\n", "Suite", "Programs", "Largest", "Smallest", "Average", "mcpu")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %9d %10d %9d %6s\n", r.Suite, r.Count, r.Largest, r.Smallest, r.Average, r.MCPU)
	}
	return nil
}

func table2(experiments.Config) error {
	fmt.Println("Table 2: Limitation of K2 and Merlin")
	fmt.Printf("%-8s %-17s %-10s %-26s %-10s\n", "System", "Instruction Set", "Hooks", "Helper Functions", "Size")
	for _, r := range experiments.Table2() {
		fmt.Printf("%-8s %-17s %-10s %-26s %-10s\n", r.System, r.InstructionSets, r.Hooks, r.HelperFunctions, r.MaxSize)
	}
	return nil
}

func table3(cfg experiments.Config) error {
	rows, err := experiments.Table3(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 3: Throughput and Latency")
	fmt.Printf("%-18s | %-23s | %s\n", "", "Throughput (Mpps)", "Latency (us) per load: clang/k2/merlin")
	fmt.Printf("%-18s | %7s %7s %7s |", "program", "clang", "k2", "merlin")
	for _, l := range []string{"low", "medium", "high", "saturate"} {
		fmt.Printf(" %-26s", l)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-18s | %7.3f %7.3f %7.3f |", r.Program,
			r.ThroughputClang, r.ThroughputK2, r.ThroughputMerlin)
		for li := 0; li < 4; li++ {
			fmt.Printf(" %8.2f/%8.2f/%8.2f", r.LatencyUS[li][0], r.LatencyUS[li][1], r.LatencyUS[li][2])
		}
		fmt.Println()
	}
	return nil
}

func table4(cfg experiments.Config) error {
	suites, err := experiments.Table4(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 4: Security Application Benchmarks")
	fmt.Printf("%-18s %9s", "Test", "Vanilla")
	for _, s := range suites {
		fmt.Printf(" | %-28s", s.Suite+" w/o | w/ | red.")
	}
	fmt.Println()
	for i := range suites[0].Micro {
		m0 := suites[0].Micro[i]
		fmt.Printf("%-18s %8.2fu", m0.Op.Name, m0.VanillaUS)
		for _, s := range suites {
			m := s.Micro[i]
			fmt.Printf(" | %8.2f %8.2f %6.1f%%", m.WithoutUS, m.WithUS, m.Reduction*100)
		}
		fmt.Println()
	}
	fmt.Printf("%-18s %9s", "Average (micro)", "")
	for _, s := range suites {
		fmt.Printf(" | %8s %8s %6.1f%%", "", "", s.AvgMicro*100)
	}
	fmt.Println()
	fmt.Printf("%-18s %8.2fs", "Postmark", suites[0].Macro.VanillaS)
	for _, s := range suites {
		fmt.Printf(" | %8.2f %8.2f %6.1f%%", s.Macro.WithoutS, s.Macro.WithS, s.Macro.Reduction*100)
	}
	fmt.Println()
	return nil
}

func table5(experiments.Config) error {
	rows, err := experiments.Table5()
	if err != nil {
		return err
	}
	fmt.Println("Table 5: State Change Over Kernel Versions")
	fmt.Printf("%-12s %-8s %-24s %10s\n", "Metric", "Kernel", "Program", "Change")
	for _, r := range rows {
		fmt.Printf("%-12s %-8s %-24s %+9.2f%%\n", r.Metric, r.Kernel, r.Program, r.Change)
	}
	return nil
}

func figCompact(suite string) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		rows, err := experiments.Compactness(suite, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("Fig 10 (%s): NI reduction by optimizer\n", suite)
		fmt.Printf("%-28s %8s %8s | %7s %7s %7s %7s %7s %7s | %7s\n",
			"program", "base NI", "opt NI", "DAO", "MoF", "CP&DCE", "SLM", "CC", "PO", "total")
		for _, r := range rows {
			fmt.Printf("%-28s %8d %8d |", r.Program, r.BaselineNI, r.OptimizedNI)
			for _, o := range []core.Optimizer{core.DAO, core.MoF, core.CPDCE, core.SLM, core.CC, core.PO} {
				fmt.Printf(" %6.2f%%", r.Contribution[o]*100)
			}
			fmt.Printf(" | %6.2f%%\n", r.Total*100)
		}
		return nil
	}
}

func fig10e(cfg experiments.Config) error {
	rows, err := experiments.Fig10e(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 10e: Compactness Comparison with K2 (XDP)")
	fmt.Printf("%-22s %8s %9s %9s %5s\n", "program", "base NI", "merlin", "k2", "k2 ok")
	for _, r := range rows {
		fmt.Printf("%-22s %8d %8.2f%% %8.2f%% %5v\n",
			r.Program, r.BaselineNI, r.MerlinReduction*100, r.K2Reduction*100, r.K2Supported)
	}
	return nil
}

func fig10f(cfg experiments.Config) error {
	rows, err := experiments.Fig10f(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 10f: Impact on Verifier (NPI and time reduction)")
	fmt.Printf("%-28s %10s %10s %8s %8s\n", "program", "NPI before", "NPI after", "NPI red.", "time red.")
	for _, r := range rows {
		fmt.Printf("%-28s %10d %10d %7.2f%% %7.2f%%\n",
			r.Program, r.NPIBefore, r.NPIAfter, r.NPIReduction*100, r.TimeReduction*100)
	}
	return nil
}

func fig11(cfg experiments.Config) error {
	rows, err := experiments.Fig11(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 11: Hardware Performance Counters (XDP)")
	fmt.Printf("%-18s %-7s %-9s %12s %12s %12s %12s\n",
		"program", "system", "load", "cacheMiss/1k", "cacheRef/1k", "brMiss/1k", "ctxSw/5s")
	for _, r := range rows {
		fmt.Printf("%-18s %-7s %-9s %12.2f %12.2f %12.2f %12.0f\n",
			r.Program, r.System, r.Load, r.CacheMissPer1k, r.CacheRefPer1k, r.BranchMissPer1k, r.ContextSwitches)
	}
	return nil
}

func fig12(cfg experiments.Config) error {
	rows, err := experiments.Fig12(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 12: Hardware Counters of Security Applications (% of original)")
	fmt.Printf("%-10s %8s %8s %8s %8s %10s %10s\n",
		"suite", "insns%", "cycles%", "cache%", "branch%", "insn save", "cyc save")
	for _, r := range rows {
		fmt.Printf("%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %10.1f %10.1f\n",
			r.Suite, r.InstructionsPercent, r.CyclesPercent, r.CacheMissPercent,
			r.BranchMissPercent, r.InstructionsSaved, r.CyclesSaved)
	}
	return nil
}

func fig13a(cfg experiments.Config) error {
	rows, err := experiments.Fig13a(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 13a: Compilation Cost of Optimizers")
	fmt.Printf("%-28s %8s %10s %10s %10s %10s %10s %10s %10s %10s\n",
		"program", "NI", "DAO", "MoF", "Dep", "CP&DCE", "SLM", "CC", "PO", "total")
	for _, r := range rows {
		fmt.Printf("%-28s %8d", r.Program, r.NI)
		for _, p := range []string{"DAO", "MoF", "Dep", "CP&DCE", "SLM", "CC", "PO"} {
			fmt.Printf(" %10s", r.PassTimes[p].Round(time.Microsecond))
		}
		fmt.Printf(" %10s\n", r.Total.Round(time.Microsecond))
	}
	return nil
}

func fig13b(cfg experiments.Config) error {
	rows, err := experiments.Fig13b(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 13b: Compilation Cost vs K2 (K2 modeled from its calibrated search-time curve)")
	fmt.Printf("%-22s %8s %12s %14s %14s\n", "program", "NI", "merlin", "k2 (modeled)", "speedup")
	for _, r := range rows {
		fmt.Printf("%-22s %8d %12s %14s %13.0fx\n",
			r.Program, r.NI, r.MerlinTime.Round(time.Microsecond), r.K2Time.Round(time.Second), r.Speedup)
	}
	return nil
}

func fig14(cfg experiments.Config) error {
	rows, err := experiments.Fig14(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 14: Latency and Throughput of xdp-balancer (cumulative optimizers)")
	fmt.Printf("%-9s %7s %8s %10s %10s %10s %10s %12s %10s\n",
		"stage", "NI", "Mpps", "lat low", "lat med", "lat high", "lat sat", "cacheMiss/1k", "ctxSw/5s")
	for _, r := range rows {
		fmt.Printf("%-9s %7d %8.3f %10.2f %10.2f %10.2f %10.2f %12.2f %10.0f\n",
			r.Stage, r.NI, r.ThroughputMpps,
			r.LatencyUS[0], r.LatencyUS[1], r.LatencyUS[2], r.LatencyUS[3],
			r.CacheMissPer1k, r.CtxSwitches)
	}
	return nil
}

func fig15(cfg experiments.Config) error {
	rows, err := experiments.Fig15(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig 15: Overhead of Sysdig (cumulative optimizers)")
	fmt.Printf("%-9s %10s %10s %12s %12s\n", "stage", "NI red.", "NPI red.", "verif red.", "overhead red.")
	for _, r := range rows {
		fmt.Printf("%-9s %9.2f%% %9.2f%% %11.2f%% %11.2f%%\n",
			r.Stage, r.NIReduction*100, r.NPIReduction*100, r.VerifTimeReduction*100, r.OverheadReduction*100)
	}
	return nil
}
