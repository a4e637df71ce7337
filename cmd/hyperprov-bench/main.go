// Command hyperprov-bench regenerates the paper's evaluation: one
// experiment per figure (Figs 1–3) plus the ablations listed in README
// "Paper figures & ablations". Results print as text tables containing the
// rows each figure plots; all durations and rates are in modeled hardware
// time.
//
// Usage:
//
//	hyperprov-bench -experiment fig1|fig2|fig3|batch|onchain|raft|query|commit|mvcc-sweep|recovery|state|channels|codec|all [-quick] [-out file] [-sweep-out file] [-recovery-out file] [-state-out file] [-channels-out file] [-codec-out file]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hyperprov/hyperprov/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: fig1, fig2, fig3, batch, onchain, raft, query, commit, mvcc-sweep, recovery, state, channels, codec, or all")
	quick := flag.Bool("quick", false, "use reduced sweep sizes and windows")
	out := flag.String("out", "BENCH_commit.json",
		"path the commit experiment writes its JSON result to (empty disables)")
	sweepOut := flag.String("sweep-out", "BENCH_mvcc_sweep.json",
		"path the mvcc-sweep experiment writes its JSON result to (empty disables)")
	recoveryOut := flag.String("recovery-out", "BENCH_recovery.json",
		"path the recovery experiment writes its JSON result to (empty disables)")
	stateOut := flag.String("state-out", "BENCH_state.json",
		"path the state experiment writes its JSON result to (empty disables)")
	channelsOut := flag.String("channels-out", "BENCH_channels.json",
		"path the channels experiment writes its JSON result to (empty disables)")
	codecOut := flag.String("codec-out", "BENCH_codec.json",
		"path the codec experiment writes its JSON result to (empty disables)")
	overheadGuard := flag.Float64("overhead-guard", 0,
		"in the commit experiment: also measure observability (metrics+tracing) overhead and fail when it exceeds this percent (0 disables)")
	flag.Parse()
	if err := run(*experiment, *quick, *out, *sweepOut, *recoveryOut, *stateOut, *channelsOut, *codecOut, *overheadGuard); err != nil {
		fmt.Fprintln(os.Stderr, "hyperprov-bench:", err)
		os.Exit(1)
	}
}

func run(experiment string, quick bool, out, sweepOut, recoveryOut, stateOut, channelsOut, codecOut string, overheadGuard float64) error {
	sweep := bench.DefaultSweep()
	energyCfg := bench.DefaultEnergy()
	if quick {
		sweep = bench.QuickSweep()
		energyCfg = bench.QuickEnergy()
	}

	runOne := func(name string) error {
		switch name {
		case "fig1":
			res, err := bench.RunFig1(sweep)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		case "fig2":
			res, err := bench.RunFig2(sweep)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		case "fig3":
			res, err := bench.RunFig3(energyCfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		case "batch":
			cfg := bench.DefaultBatchAblation()
			if quick {
				cfg.BatchSizes = []int{1, 20}
				cfg.WallPerPoint = sweep.WallPerPoint
			}
			res, err := bench.RunBatchAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		case "onchain":
			cfg := bench.DefaultOnchainAblation()
			if quick {
				cfg.Sizes = []int{1 << 10, 128 << 10}
				cfg.WallPerPoint = sweep.WallPerPoint
			}
			off, on, err := bench.RunOnchainAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(off.Format())
			fmt.Println(on.Format())
		case "query":
			cfg := bench.DefaultQueryBench()
			if quick {
				cfg = bench.QuickQueryBench()
			}
			res, err := bench.RunQueryBench(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		case "raft":
			cfg := bench.DefaultRaftAblation()
			if quick {
				cfg.WallPerPhase = sweep.WallPerPoint
			}
			res, err := bench.RunRaftAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		case "commit":
			cfg := bench.DefaultCommitBench()
			if quick {
				cfg = bench.QuickCommitBench()
			}
			cfg.Overhead = overheadGuard > 0
			res, err := bench.RunCommitBench(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
			if out != "" {
				if err := res.WriteJSON(out); err != nil {
					return err
				}
				fmt.Println("wrote", out)
			}
			if o := res.Overhead; o != nil && o.OverheadPct > overheadGuard {
				return fmt.Errorf("observability overhead %.2f%% exceeds guard %.2f%%",
					o.OverheadPct, overheadGuard)
			}
		case "mvcc-sweep":
			cfg := bench.DefaultMVCCSweep()
			if quick {
				cfg = bench.QuickMVCCSweep()
			}
			res, err := bench.RunMVCCSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
			if sweepOut != "" {
				if err := res.WriteJSON(sweepOut); err != nil {
					return err
				}
				fmt.Println("wrote", sweepOut)
			}
		case "recovery":
			cfg := bench.DefaultRecoveryBench()
			if quick {
				cfg = bench.QuickRecoveryBench()
			}
			res, err := bench.RunRecoveryBench(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
			if recoveryOut != "" {
				if err := res.WriteJSON(recoveryOut); err != nil {
					return err
				}
				fmt.Println("wrote", recoveryOut)
			}
		case "state":
			cfg := bench.DefaultStateBench()
			if quick {
				cfg = bench.QuickStateBench()
			}
			res, err := bench.RunStateBench(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
			if stateOut != "" {
				if err := res.WriteJSON(stateOut); err != nil {
					return err
				}
				fmt.Println("wrote", stateOut)
			}
		case "channels":
			cfg := bench.DefaultChannelBench()
			if quick {
				cfg = bench.QuickChannelBench()
			}
			res, err := bench.RunChannelBench(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
			if channelsOut != "" {
				if err := res.WriteJSON(channelsOut); err != nil {
					return err
				}
				fmt.Println("wrote", channelsOut)
			}
		case "codec":
			cfg := bench.DefaultCodecBench()
			if quick {
				cfg = bench.QuickCodecBench()
			}
			res, err := bench.RunCodecBench(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
			if codecOut != "" {
				if err := res.WriteJSON(codecOut); err != nil {
					return err
				}
				fmt.Println("wrote", codecOut)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if experiment == "all" {
		for _, name := range []string{"fig1", "fig2", "fig3", "batch", "onchain", "raft", "query", "commit", "mvcc-sweep", "recovery", "state", "channels", "codec"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(experiment)
}
