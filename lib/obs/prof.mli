(** The hot-path profiler switch.

    Counters are cheap enough to stay on permanently; timing histograms
    on per-merge / per-charge granularity are not.  Instrumented hot
    paths guard both the clock reads and the histogram registration
    behind this flag, so a run without [--profile] performs no extra
    system calls, allocates nothing, and registers no [prof/*] metrics —
    its manifest is bit-identical to an uninstrumented build's.

    The idiom at an instrumentation site:

    {[
      let t0 = if Prof.enabled () then Trg_util.Clock.monotonic () else 0. in
      ...hot work...
      if Prof.enabled () then
        Metrics.observe (Lazy.force hist) (1e6 *. (Trg_util.Clock.monotonic () -. t0))
    ]}

    Histogram handles are [Lazy] so the [prof/*] names only ever enter
    the metric registry once profiling has been requested. *)

val set_enabled : bool -> unit
(** Default: disabled.  The CLI's [--profile] flag turns it on before
    any experiment work runs (and before the evaluation pool forks, so
    workers inherit the setting). *)

val enabled : unit -> bool

val us_limits : float array
(** Shared bucket boundaries for microsecond-scale latency histograms:
    1 us to 100 s in half-decade steps, so whole pool units still land
    in a bounded bucket.  Using one limit vector keeps
    [prof/*] histograms mergeable across pool workers. *)
