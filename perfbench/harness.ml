(* The measurement side of the benchmark, independent of any workload:
   metric specifications, the untraced and traced runs, per-layer self
   time from spans, the pinned-output check, and result rendering. *)

module Span = Trg_obs.Span
module Metrics = Trg_obs.Metrics
module Json = Trg_obs.Json
module Clock = Trg_util.Clock

(* --- metric specifications ----------------------------------------- *)

type better = Lower | Higher

type spec = { name : string; unit_ : string; better : better }

let better_name = function Lower -> "lower" | Higher -> "higher"

let spec name unit_ better = { name; unit_; better }

(* What a user of the placement tool sees; all timings with tracing off.
   [op_p90_ms] is meaningful only where at least ten ops of a pass lie
   beyond it (fig5-go); elsewhere it is printed for completeness. *)
let end_to_end =
  [
    spec "setup_s" "s" Lower;
    spec "wall_s" "s" Lower;
    spec "layout_s" "s" Lower;
    spec "op_p50_ms" "ms" Lower;
    spec "op_p90_ms" "ms" Lower;
    spec "op_max_s" "s" Lower;
    spec "peak_heap_mb" "MB" Lower;
    spec "miss_pct.gbsc" "%" Lower;
    spec "miss_ratio.gbsc_ph" "ratio" Lower;
    spec "amat_cyc.gbsc" "cycles" Lower;
  ]

(* Reported next to the end-to-end metrics but kept out of the result
   object: it is 0 on every clean run, and the result's [failed] field
   already carries it. *)
let failed_frac = spec "failed_frac" "ratio" Lower

let per_layer =
  [
    spec "trace.load_s" "s" Lower;
    spec "trace.decode_s" "s" Lower;
    spec "trace.load_mevents_per_s" "Mevents/s" Higher;
    spec "trace.events" "count" Lower;
    spec "trace.gen_s" "s" Lower;
    spec "trace.save_s" "s" Lower;
    spec "profile.trg_s" "s" Lower;
    spec "profile.wcg_s" "s" Lower;
    spec "profile.alloc_mw" "Mwords" Lower;
    spec "profile.trg_edge_increments" "count" Lower;
    spec "profile.qset_steps" "count" Lower;
    spec "profile.perturb_s" "s" Lower;
    spec "profile.sa_db_s" "s" Lower;
    spec "merge.gbsc_s" "s" Lower;
    spec "merge.hkc_s" "s" Lower;
    spec "merge.ph_s" "s" Lower;
    spec "merge.gbsc_sa_s" "s" Lower;
    spec "merge.steps" "count" Lower;
    spec "merge.stale_pop_frac" "ratio" Lower;
    spec "merge.alloc_mw" "Mwords" Lower;
    spec "cost.offset_candidates" "count" Lower;
    spec "cost.incr_queries" "count" Lower;
    spec "cost.incr_fallbacks" "count" Lower;
    spec "cost.incr_fallback_frac" "ratio" Lower;
    spec "cost.sets_recosted" "count" Lower;
    spec "sim.l1_s" "s" Lower;
    spec "sim.l1_mevents_per_s" "Mevents/s" Higher;
    spec "sim.accesses" "count" Lower;
    spec "sim.misses" "count" Lower;
    spec "sim.hier_s" "s" Lower;
    spec "sim.hier_cycles" "count" Lower;
    spec "eval.prepare_s" "s" Lower;
    spec "eval.prepares" "count" Lower;
    spec "bench.trace_overhead_frac" "ratio" Lower;
    spec "bench.trace_coverage_frac" "ratio" Higher;
  ]

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* --- layers --------------------------------------------------------- *)

(* Every call into a layer's public function goes through [layer], named
   after the per-layer metric it feeds ("sim.l1" feeds [sim.l1_s]).  With
   spans disabled this is a bool check and a call. *)
let layer = Span.with_

(* Events the benchmark hands to loaders and to the L1 simulator, for the
   per-layer throughput metrics.  Plain counters in the benchmark's own
   state, since [lib/] counts neither. *)
let events_loaded = ref 0
let events_simulated = ref 0

(* The library's own preparation spans ([Runner.prepare]'s stages) are
   attributed to the layer that does the work. *)
let layer_of_span name =
  match name with
  | "trace.load" | "trace.decode" | "trace.gen" | "trace.save" | "profile.trg"
  | "profile.wcg" | "profile.perturb" | "profile.sa_db" | "merge.gbsc"
  | "merge.hkc" | "merge.ph" | "merge.gbsc_sa" | "sim.l1" | "sim.hier"
  | "eval.prepare" ->
    Some name
  | "generate" | "train-trace" | "test-trace" -> Some "trace.gen"
  | "profile" -> Some "profile.trg"
  | "wcg" -> Some "profile.wcg"
  | _ when String.starts_with ~prefix:"prepare:" name -> Some "eval.prepare"
  | _ -> None

type self_row = { lname : string; calls : int; self_s : float; self_mw : float }

(* Self time of a layer span is its duration minus the part its nearest
   layer-span descendants cover; spans of no layer (ops, passes) are
   transparent.  Records arrive in post-order, so a per-depth accumulator
   of "layer time already accounted for below" suffices. *)
let self_times (records : Span.record list) =
  let below = Hashtbl.create 16 in
  let get d = Option.value ~default:(0., 0.) (Hashtbl.find_opt below d) in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (r : Span.record) ->
      let cw, ca = get (r.depth + 1) in
      Hashtbl.remove below (r.depth + 1);
      let pw, pa = get r.depth in
      match layer_of_span r.name with
      | None -> Hashtbl.replace below r.depth (pw +. cw, pa +. ca)
      | Some l ->
        let prev =
          Option.value (Hashtbl.find_opt rows l)
            ~default:{ lname = l; calls = 0; self_s = 0.; self_mw = 0. }
        in
        Hashtbl.replace rows l
          {
            prev with
            calls = prev.calls + 1;
            self_s = prev.self_s +. Float.max 0. (r.wall_s -. cw);
            self_mw = prev.self_mw +. (Float.max 0. (r.alloc_words -. ca) /. 1e6);
          };
        Hashtbl.replace below r.depth (pw +. r.wall_s, pa +. r.alloc_words))
    records;
  List.sort (fun a b -> compare a.lname b.lname) (List.of_seq (Hashtbl.to_seq_values rows))

(* --- ops, passes and workloads -------------------------------------- *)

(* One op's outputs: every scored layout's pinned values (miss counts,
   [Layout.digest]s, hierarchy cycles), keyed. *)
type op = {
  op_name : string;
  latency_s : float;
  layout_s : float;  (** part of the op spent producing layouts *)
  obs : (string * int) list;
  error : string option;
}

(* [f] returns the op's layout time and observations; raising fails it. *)
let run_op name f =
  let t0 = Clock.monotonic () in
  match Span.with_ ("op:" ^ name) f with
  | layout_s, obs ->
    { op_name = name; latency_s = Clock.monotonic () -. t0; layout_s; obs; error = None }
  | exception e ->
    {
      op_name = name;
      latency_s = Clock.monotonic () -. t0;
      layout_s = 0.;
      obs = [];
      error = Some (Printexc.to_string e);
    }

type pass = {
  ops : op list;
  quality : (string * float) list Lazy.t;
      (** the simulated end-to-end metrics; forced after timing stops *)
  rows : string list Lazy.t;  (** per-program human-readable rows *)
  checked : (string * float) list;
      (** simulated miss rates the reference must reproduce, keyed *)
}

type instance = {
  pass : unit -> pass;
  reference : (unit -> (string * float) list) option;
      (** [checked] as the library's own experiment entry point computes
          it; run at the default seed only *)
}

type workload = {
  name : string;
  setup_reps : int;
  setup : unit -> instance;
}

(* --- pinned outputs ------------------------------------------------- *)

(* One [workload key value] line per pinned output. *)
let load_pins path workload =
  let pins = Hashtbl.create 512 in
  In_channel.with_open_text path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ w; key; v ] when w = workload ->
               Hashtbl.replace pins key (int_of_string v)
             | _ -> ()));
  pins

let render_pins workload passes =
  match passes with
  | [] -> []
  | p :: _ ->
    List.concat_map
      (fun o -> List.map (fun (k, v) -> Printf.sprintf "%s %s %d" workload k v) o.obs)
      p.ops

(* Why an op failed, if it did: it raised (incomplete layouts raise in
   the workloads), or with [pins] given, an output is unpinned or differs. *)
let op_failure pins (o : op) =
  match o.error with
  | Some e -> Some e
  | None -> (
    match pins with
    | None -> None
    | Some pins ->
      List.find_map
        (fun (k, v) ->
          match Hashtbl.find_opt pins k with
          | Some p when p = v -> None
          | Some p -> Some (Printf.sprintf "%s = %d, pinned %d" k v p)
          | None -> Some (Printf.sprintf "%s = %d is not pinned" k v))
        o.obs)

(* --- statistics ----------------------------------------------------- *)

let median xs = Trg_util.Stats.median (Array.of_list xs)

let percentile xs p = Trg_util.Stats.percentile (Array.of_list xs) p

let geomean = function
  | [] -> 0.
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

let timed f =
  let t0 = Clock.monotonic () in
  let v = f () in
  (v, Clock.monotonic () -. t0)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- runs ----------------------------------------------------------- *)

type config = {
  seconds : float;
  pins : (string, int) Hashtbl.t option;  (** [None]: structural check only *)
  reference : bool;  (** run the workloads' reference equalities *)
  artifacts : string;  (** directory for the traced pass's files *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (spec * float) list;
  lines : string list;  (** human-readable report, printed before the JSON *)
  passes : pass list;
}

let failures cfg passes =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun o -> Option.map (fun m -> o.op_name ^ ": " ^ m) (op_failure cfg.pins o))
        p.ops)
    passes

let reference_failures cfg (inst : instance) pass =
  match inst.reference with
  | Some f when cfg.reference ->
    let want = f () in
    if want = pass.checked then []
    else
      [
        Printf.sprintf "reference: %d of %d values differ from the library's entry point"
          (List.length (List.filter (fun kv -> not (List.mem kv pass.checked)) want))
          (List.length want);
      ]
  | _ -> []

let outputs p =
  (List.map (fun o -> (o.op_name, o.obs)) p.ops, Lazy.force p.quality, p.checked)

let pass_metrics p =
  let lat = List.map (fun o -> o.latency_s) p.ops in
  ( percentile lat 50. *. 1e3,
    percentile lat 90. *. 1e3,
    List.fold_left Float.max 0. lat,
    List.fold_left (fun a o -> a +. o.layout_s) 0. p.ops )

let metric_line (s : spec) v =
  Printf.sprintf "metric %-28s %16.6f %-10s (%s is better)" s.name v s.unit_
    (better_name s.better)

(* Untraced: [setup_reps] timed set-ups, then passes until [seconds] of
   passes have elapsed (at least one).  Each pass-level statistic is taken
   per pass and reported as the median over passes. *)
let run_untraced cfg w =
  let inst = ref None in
  let setup_times =
    List.init w.setup_reps (fun _ ->
        inst := None;
        let i, dt = timed w.setup in
        inst := Some i;
        dt)
  in
  let inst = Option.get !inst in
  let t0 = Clock.monotonic () in
  let rec loop acc =
    let p, wall = timed inst.pass in
    let acc = (p, wall) :: acc in
    if Clock.monotonic () -. t0 >= cfg.seconds then List.rev acc else loop acc
  in
  let timed_passes = loop [] in
  let passes = List.map fst timed_passes in
  let heap = heap_mb () in
  let stats = List.map (fun (p, _) -> pass_metrics p) timed_passes in
  let col f = median (List.map f stats) in
  let first = List.hd passes in
  let quality = Lazy.force first.quality in
  let op_failures = failures cfg passes in
  let errors =
    op_failures
    @ (if List.for_all (fun p -> outputs p = outputs first) passes then []
       else [ "passes disagree on simulated outputs" ])
    @ reference_failures cfg inst first
  in
  let attempted = List.fold_left (fun a p -> a + List.length p.ops) 0 passes in
  let failed = List.length op_failures in
  let find name = Option.value ~default:0. (List.assoc_opt name quality) in
  let values =
    [
      ("setup_s", median setup_times);
      ("wall_s", median (List.map snd timed_passes));
      ("layout_s", col (fun (_, _, _, l) -> l));
      ("op_p50_ms", col (fun (p50, _, _, _) -> p50));
      ("op_p90_ms", col (fun (_, p90, _, _) -> p90));
      ("op_max_s", col (fun (_, _, mx, _) -> mx));
      ("peak_heap_mb", heap);
      ("miss_pct.gbsc", find "miss_pct.gbsc");
      ("miss_ratio.gbsc_ph", find "miss_ratio.gbsc_ph");
      ("amat_cyc.gbsc", find "amat_cyc.gbsc");
    ]
  in
  let metrics = List.map (fun (s : spec) -> (s, List.assoc s.name values)) end_to_end in
  let failed_line =
    (failed_frac, float_of_int failed /. float_of_int (max 1 attempted))
  in
  {
    correct = errors = [];
    attempted;
    failed;
    metrics;
    lines =
      Lazy.force first.rows
      @ [
          Printf.sprintf "%d set-ups, %d passes of %d ops; pass walls %s s" w.setup_reps
            (List.length passes) (List.length first.ops)
            (String.concat " " (List.map (fun (_, t) -> Printf.sprintf "%.3f" t) timed_passes));
        ]
      @ List.map (fun m -> "FAIL " ^ m) errors
      @ List.map (fun (s, v) -> metric_line s v) (metrics @ [ failed_line ]);
    passes;
  }

let counter_delta before after name =
  let find snap = Option.value ~default:0 (List.assoc_opt name snap.Metrics.snap_counters) in
  find after - find before

let ratio a b = if b = 0. then 0. else a /. b

(* Traced: one untraced set-up + pass for the overhead baseline, then the
   same under spans, whose self times and counter deltas give the
   per-layer metrics.  The two passes' simulated outputs must agree. *)
let run_traced cfg w =
  let untraced () =
    let inst = w.setup () in
    (inst, inst.pass ())
  in
  let (_, plain), plain_wall = timed untraced in
  ignore (Lazy.force plain.quality);
  Span.reset ();
  events_loaded := 0;
  events_simulated := 0;
  let before = Metrics.snapshot () in
  Span.set_enabled true;
  let (inst, traced), traced_wall =
    timed (fun () ->
        Span.with_ "traced" (fun () ->
            let inst = Span.with_ "setup" w.setup in
            (inst, Span.with_ "pass" inst.pass)))
  in
  Span.set_enabled false;
  let after = Metrics.snapshot () in
  let records = Span.records () in
  let rows = self_times records in
  let self l =
    List.find_map (fun r -> if r.lname = l then Some r.self_s else None) rows
    |> Option.value ~default:0.
  in
  let sum_mw prefix =
    List.fold_left
      (fun a r -> if String.starts_with ~prefix r.lname then a +. r.self_mw else a)
      0. rows
  in
  let count name = float_of_int (counter_delta before after name) in
  let covered = List.fold_left (fun a r -> a +. r.self_s) 0. rows in
  let values =
    [
      ("trace.load_s", self "trace.load");
      ("trace.decode_s", self "trace.decode");
      ( "trace.load_mevents_per_s",
        ratio (float_of_int !events_loaded /. 1e6) (self "trace.load") );
      ("trace.events", float_of_int !events_loaded);
      ("trace.gen_s", self "trace.gen");
      ("trace.save_s", self "trace.save");
      ("profile.trg_s", self "profile.trg");
      ("profile.wcg_s", self "profile.wcg");
      ("profile.alloc_mw", sum_mw "profile.");
      ("profile.trg_edge_increments", count "trg/edge_increments");
      ("profile.qset_steps", count "trg/qset_steps");
      ("profile.perturb_s", self "profile.perturb");
      ("profile.sa_db_s", self "profile.sa_db");
      ("merge.gbsc_s", self "merge.gbsc");
      ("merge.hkc_s", self "merge.hkc");
      ("merge.ph_s", self "merge.ph");
      ("merge.gbsc_sa_s", self "merge.gbsc_sa");
      ("merge.steps", count "merge/merges");
      ("merge.stale_pop_frac", ratio (count "merge/stale_pops") (count "merge/heap_pops"));
      ("merge.alloc_mw", sum_mw "merge.");
      ("cost.offset_candidates", count "gbsc/offset_candidates");
      ("cost.incr_queries", count "cost/incr/queries");
      ("cost.incr_fallbacks", count "cost/incr/fallbacks");
      ( "cost.incr_fallback_frac",
        ratio (count "cost/incr/fallbacks") (count "gbsc/placements") );
      ("cost.sets_recosted", count "cost/incr/sets_recosted");
      ("sim.l1_s", self "sim.l1");
      ( "sim.l1_mevents_per_s",
        ratio (float_of_int !events_simulated /. 1e6) (self "sim.l1") );
      ("sim.accesses", count "sim/accesses");
      ("sim.misses", count "sim/misses");
      ("sim.hier_s", self "sim.hier");
      ("sim.hier_cycles", count "hier/cycles");
      ("eval.prepare_s", self "eval.prepare");
      ( "eval.prepares",
        float_of_int
          (List.length
             (List.filter
                (fun (r : Span.record) -> String.starts_with ~prefix:"prepare:" r.name)
                records)) );
      ("bench.trace_overhead_frac", ratio traced_wall plain_wall -. 1.);
      ("bench.trace_coverage_frac", ratio covered traced_wall);
    ]
  in
  let metrics = List.map (fun (s : spec) -> (s, List.assoc s.name values)) per_layer in
  let table =
    Printf.sprintf "%-18s %6s %12s %12s" "layer" "calls" "self_s" "self_Mwords"
    :: List.map
         (fun r -> Printf.sprintf "%-18s %6d %12.6f %12.3f" r.lname r.calls r.self_s r.self_mw)
         rows
  in
  let chrome = Filename.concat cfg.artifacts (w.name ^ ".trace.json") in
  let selftime = Filename.concat cfg.artifacts (w.name ^ ".selftime.txt") in
  Out_channel.with_open_text chrome (fun oc ->
      output_string oc
        (Json.to_string
           (Span.chrome_of_spans (Option.value ~default:[] (Json.to_list (Span.to_json ()))))));
  Out_channel.with_open_text selftime (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) table);
  let passes = [ plain; traced ] in
  let op_failures = failures cfg passes in
  let errors =
    op_failures
    @ (if outputs plain = outputs traced then []
       else [ "traced and untraced passes disagree on simulated outputs" ])
    @ reference_failures cfg inst traced
  in
  let attempted = List.length plain.ops + List.length traced.ops in
  let failed = List.length op_failures in
  {
    correct = errors = [];
    attempted;
    failed;
    metrics;
    lines =
      Lazy.force traced.rows @ table
      @ [ "chrome trace: " ^ chrome; "self-time table: " ^ selftime ]
      @ List.map (fun m -> "FAIL " ^ m) errors
      @ List.map (fun (s, v) -> metric_line s v) metrics;
    passes;
  }

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((s : spec), v) ->
               (s.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String s.unit_) ]))
             r.metrics) );
    ]
