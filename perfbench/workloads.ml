(* The benchmark's three workloads.  Each wraps every call into a layer's
   public function in [Harness.layer], so one code path serves the
   untraced and the traced pass. *)

module Shape = Trg_synth.Shape
module Bench = Trg_synth.Bench
module Gen = Trg_synth.Gen
module Walker = Trg_synth.Walker
module Flat = Trg_trace.Trace.Flat
module Io = Trg_trace.Io
module Serial = Trg_program.Serial
module Program = Trg_program.Program
module Layout = Trg_program.Layout
module Config = Trg_cache.Config
module Sim = Trg_cache.Sim
module Hierarchy = Trg_cache.Hierarchy
module Gbsc = Trg_place.Gbsc
module Gbsc_sa = Trg_place.Gbsc_sa
module Ph = Trg_place.Ph
module Hkc = Trg_place.Hkc
module Wcg = Trg_profile.Wcg
module Trg = Trg_profile.Trg
module Perturb = Trg_profile.Perturb
module Prng = Trg_util.Prng
module Runner = Trg_eval.Runner
module Figure5 = Trg_eval.Figure5
module Setassoc = Trg_eval.Setassoc
open Harness

(* The seed that reproduces the shipped [Bench] shapes and Figure 5's
   perturbation draws.  Any other seed moves the one random input each
   workload scores: the testing input's walker seed on place-paper and
   setassoc-small, the perturbation draws on fig5-go.  Programs and
   training inputs stay the shipped ones, so profiling and placement do
   the same work on every seed; offsetting the shape seeds as well made
   that work itself vary by up to 4x across seeds. *)
let default_seed = 0

let offset seed = (seed - default_seed) * 1_000_003

let seeded seed (s : Shape.t) =
  { s with test = { s.test with Walker.seed = s.test.Walker.seed + offset seed } }

(* Workload sizes; [toy] is the self-test's. *)
type scale = {
  programs : Shape.t list;  (** place-paper *)
  fig5 : Shape.t;
  runs : int;  (** perturbed profiles per algorithm *)
  setassoc : Shape.t;
  max_between : int;
  assocs : int list;
}

let full =
  {
    programs = Bench.all;
    fig5 = Bench.find "go";
    runs = 40;
    setassoc = Bench.small;
    max_between = 32;
    assocs = [ 2; 4 ];
  }

let toy =
  {
    programs = [ Bench.small ];
    fig5 = Bench.small;
    runs = 2;
    setassoc = Bench.small;
    max_between = 4;
    assocs = [ 2 ];
  }

let skylake =
  match Trg_cache.Cpu.find "skylake" with
  | Ok c -> c.Trg_cache.Cpu.hier
  | Error m -> failwith m

let pct x = 100. *. x

(* One scored layout: its miss count on the testing trace, and its digest.
   An incomplete layout fails the op. *)
let score ?(policy = Trg_cache.Policy.Lru) program cache flat key layout =
  if Layout.n_procs layout <> Program.n_procs program then
    failwith (Printf.sprintf "%s: layout places %d of %d procedures" key
                (Layout.n_procs layout) (Program.n_procs program));
  let r = layer "sim.l1" (fun () -> Sim.simulate_flat ~policy program layout cache flat) in
  events_simulated := !events_simulated + r.Sim.events;
  (Sim.miss_rate r, [ (key ^ ".misses", r.Sim.misses); (key ^ ".digest", Layout.digest layout) ])

let amat program layout trace =
  (layer "sim.hier" (fun () -> Hierarchy.simulate program layout skylake trace)).Hierarchy.amat

let since t0 = Clock.monotonic () -. t0

(* --- place-paper ---------------------------------------------------- *)

(* The linker user's flow on every Table 1 program: files -> TRG_select,
   TRG_place and WCG -> GBSC, PH and HKC layouts -> scores on the paper's
   L1 and the GBSC layout's cycles on a modern hierarchy. *)
let place_paper ~scale ~seed ~dir =
  let shapes = List.map (seeded seed) scale.programs in
  let file shape ext = Filename.concat dir (shape.Shape.name ^ "." ^ ext) in
  let config = Gbsc.default_config () in
  let cache = config.Gbsc.cache in
  let load path =
    let f = layer "trace.load" (fun () -> Io.load_flat path) in
    events_loaded := !events_loaded + Flat.length f;
    f
  in
  let op shape record () =
    let t0 = Clock.monotonic () in
    let program = layer "trace.load" (fun () -> Serial.load_program (file shape "program")) in
    let train = layer "trace.decode" (fun () -> Flat.to_trace (load (file shape "train"))) in
    let prof = layer "profile.trg" (fun () -> Gbsc.profile config program train) in
    let wcg = layer "profile.wcg" (fun () -> Wcg.build train) in
    let g = layer "merge.gbsc" (fun () -> Gbsc.place program prof) in
    let ph = layer "merge.ph" (fun () -> Ph.place ~wcg program) in
    let hkc =
      layer "merge.hkc" (fun () ->
          Hkc.place config program ~wcg ~popularity:prof.Gbsc.popularity)
    in
    let layout_s = since t0 in
    let test_flat = load (file shape "test") in
    let name = shape.Shape.name in
    let sc algo l = score program cache test_flat (name ^ "/" ^ algo) l in
    let g_mr, g_obs = sc "gbsc" g in
    let ph_mr, ph_obs = sc "ph" ph in
    let hkc_mr, hkc_obs = sc "hkc" hkc in
    let test = layer "trace.decode" (fun () -> Flat.to_trace test_flat) in
    let hier = layer "sim.hier" (fun () -> Hierarchy.simulate program g skylake test) in
    record := Some (g_mr, ph_mr, hkc_mr, hier.Hierarchy.amat);
    (layout_s, g_obs @ ph_obs @ hkc_obs @ [ (name ^ "/gbsc.skylake_cycles", hier.Hierarchy.cycles) ])
  in
  let setup () =
    List.iter
      (fun shape ->
        let w, train, test =
          layer "trace.gen" (fun () ->
              let w = Gen.generate shape in
              (w, Flat.of_trace (Gen.train_trace w), Flat.of_trace (Gen.test_trace w)))
        in
        layer "trace.save" (fun () ->
            Serial.save_program (file shape "program") w.Gen.program;
            Io.save_flat (file shape "train") train;
            Io.save_flat (file shape "test") test))
      shapes;
    let pass () =
      let results =
        List.map
          (fun shape ->
            let record = ref None in
            let o = run_op shape.Shape.name (op shape record) in
            (shape.Shape.name, o, !record))
          shapes
      in
      let scored = List.filter_map (fun (n, _, r) -> Option.map (fun r -> (n, r)) r) results in
      {
        ops = List.map (fun (_, o, _) -> o) results;
        quality =
          lazy
            [
              ("miss_pct.gbsc", geomean (List.map (fun (_, (g, _, _, _)) -> pct g) scored));
              ("miss_ratio.gbsc_ph", geomean (List.map (fun (_, (g, ph, _, _)) -> g /. ph) scored));
              ("amat_cyc.gbsc", geomean (List.map (fun (_, (_, _, _, a)) -> a) scored));
            ];
        checked = [];
        rows =
          lazy
            (List.map
               (fun (n, (g, ph, hkc, a)) ->
                 Printf.sprintf
                   "%-12s miss%% gbsc %.4f  ph %.4f  hkc %.4f  gbsc/ph %.4f  skylake amat %.4f cyc"
                   n (pct g) (pct ph) (pct hkc) (g /. ph) a)
               scored);
      }
    in
    { pass; reference = None }
  in
  { name = "place-paper"; setup_reps = 3; setup }

(* --- fig5-go -------------------------------------------------------- *)

(* Figure 5's method on one program: PH, HKC and GBSC, unperturbed and at
   [scale.runs] perturbed profiles each, every layout scored on the L1
   testing trace.  The per-run PRNG derivation mirrors [Figure5.run_algo]
   (whose default seed is 7777), which the reference check proves. *)

let population algo ~unperturbed ~sorted =
  let n = Figure5.algo_name algo in
  (n ^ ".unperturbed", unperturbed)
  :: Array.to_list (Array.mapi (fun i x -> (Printf.sprintf "%s.sorted.%d" n i, x)) sorted)

let fig5 ~scale ~seed =
  let shape = scale.fig5 in
  let fig5_seed = 7_777 + offset seed in
  let s = Perturb.default_s in
  let setup () =
    let r = layer "eval.prepare" (fun () -> Runner.prepare shape) in
    let program = Runner.program r in
    let config = r.Runner.config in
    let chunks = r.Runner.prof.Gbsc.chunks in
    let gbsc ~select ~trg =
      Gbsc.place_with config program ~select ~model:(Trg_place.Cost.Trg_chunks { chunks; trg })
    in
    let place algo (wcg, select, trg) =
      match algo with
      | Figure5.PH -> layer "merge.ph" (fun () -> Ph.place ~wcg program)
      | HKC ->
        layer "merge.hkc" (fun () ->
            Hkc.place config program ~wcg ~popularity:r.Runner.prof.Gbsc.popularity)
      | GBSC -> layer "merge.gbsc" (fun () -> gbsc ~select ~trg)
    in
    let base = (r.Runner.wcg, r.Runner.prof.Gbsc.select.Trg.graph, r.Runner.prof.Gbsc.place.Trg.graph) in
    let perturbed algo i () =
      let wcg, select, trg = base in
      layer "profile.perturb" (fun () ->
          let rng = Prng.create (fig5_seed + (1000 * i) + Hashtbl.hash (Figure5.algo_name algo)) in
          let wcg = Perturb.graph rng ~s wcg in
          let select = Perturb.graph rng ~s select in
          let trg = Perturb.graph rng ~s trg in
          (wcg, select, trg))
    in
    (* One op: perturb (or not), place, score.  Yields the op and its miss
       rate and layout. *)
    let unit_op algo label graphs =
      let key = Printf.sprintf "%s/%s/%s" shape.Shape.name (Figure5.algo_name algo) label in
      let scored = ref (nan, None) in
      let o =
        run_op key (fun () ->
            let t0 = Clock.monotonic () in
            let l = place algo (graphs ()) in
            let layout_s = since t0 in
            let mr, obs =
              score ~policy:r.Runner.policy program config.Gbsc.cache r.Runner.test_flat key l
            in
            scored := (mr, Some l);
            (layout_s, obs))
      in
      (o, !scored)
    in
    let pass () =
      let per_algo =
        List.map
          (fun algo ->
            let b = unit_op algo "base" (fun () -> base) in
            let ps = List.init scale.runs (fun i -> unit_op algo (string_of_int i) (perturbed algo i)) in
            let by_rate = List.stable_sort (fun (x, _) (y, _) -> compare x y) (List.map snd ps) in
            (algo, List.map fst (b :: ps), fst (snd b), by_rate))
          Figure5.[ PH; HKC; GBSC ]
      in
      let by_rate_of algo =
        List.find_map (fun (a, _, _, by_rate) -> if a = algo then Some by_rate else None) per_algo
        |> Option.get
      in
      let med algo = Trg_util.Stats.median (Array.of_list (List.map fst (by_rate_of algo))) in
      {
        ops = List.concat_map (fun (_, ops, _, _) -> ops) per_algo;
        quality =
          lazy
            (let gbsc = by_rate_of GBSC in
             [
               ("miss_pct.gbsc", pct (med GBSC));
               ("miss_ratio.gbsc_ph", med GBSC /. med PH);
               (* The perturbed GBSC layout at the population's (lower) median. *)
               ( "amat_cyc.gbsc",
                 match snd (List.nth gbsc ((List.length gbsc - 1) / 2)) with
                 | Some l -> amat program l r.Runner.test
                 | None -> 0. );
             ]);
        rows =
          lazy
            (List.map
               (fun (a, _, unperturbed, by_rate) ->
                 let sorted = Array.of_list (List.map fst by_rate) in
                 Printf.sprintf
                   "%-5s miss%% unperturbed %.4f  perturbed min %.4f median %.4f max %.4f"
                   (Figure5.algo_name a) (pct unperturbed) (pct sorted.(0))
                   (pct (Trg_util.Stats.median sorted))
                   (pct sorted.(Array.length sorted - 1)))
               per_algo);
        checked =
          List.concat_map
            (fun (a, _, unperturbed, by_rate) ->
              population a ~unperturbed ~sorted:(Array.of_list (List.map fst by_rate)))
            per_algo;
      }
    in
    let reference () =
      List.concat_map
        (fun algo ->
          let res = Figure5.run_algo ~runs:scale.runs ~s ~seed:fig5_seed r algo in
          population algo ~unperturbed:res.Figure5.unperturbed ~sorted:res.Figure5.sorted)
        Figure5.[ PH; HKC; GBSC ]
    in
    { pass; reference = Some reference }
  in
  { name = "fig5-go"; setup_reps = 5; setup }

(* --- setassoc-small ------------------------------------------------- *)

(* The two Section 6 units E6 runs, composed layer by layer exactly as
   [Setassoc.run_section] composes them (the reference check proves the
   rows equal) so that each layer call gets its own span. *)
let setassoc ~scale ~seed =
  let shape = seeded seed scale.setassoc in
  let max_between = scale.max_between in
  let section assoc record () =
    let t0 = Clock.monotonic () in
    let cache = Config.make ~size:8192 ~line_size:32 ~assoc in
    let config = Gbsc.default_config ~cache () in
    let r = layer "eval.prepare" (fun () -> Runner.prepare ~config shape) in
    let program = Runner.program r in
    let config_dm = Gbsc.default_config ~cache:(Config.make ~size:8192 ~line_size:32 ~assoc:1) () in
    let prof_dm = layer "profile.trg" (fun () -> Gbsc.profile config_dm program r.Runner.train) in
    let gbsc_dm = layer "merge.gbsc" (fun () -> Gbsc.place program prof_dm) in
    let sa =
      if assoc = 2 then
        let prof =
          layer "profile.sa_db" (fun () ->
              Gbsc_sa.profile ~max_between config program r.Runner.train)
        in
        layer "merge.gbsc_sa" (fun () -> Gbsc_sa.place program prof)
      else
        let prof =
          layer "profile.sa_db" (fun () -> Gbsc_sa.profile_tuples config program r.Runner.train)
        in
        layer "merge.gbsc_sa" (fun () -> Gbsc_sa.place_tuples program prof)
    in
    let ph = layer "merge.ph" (fun () -> Runner.ph_layout r) in
    let layout_s = since t0 in
    (* (pin key, [Setassoc] row label, layout) *)
    let scored =
      List.map
        (fun (key, label, l) ->
          let mr, obs =
            score ~policy:r.Runner.policy program cache r.Runner.test_flat
              (Printf.sprintf "%s/%d-way/%s" shape.Shape.name assoc key) l
          in
          (key, label, mr, obs))
        [
          ("default", "default layout", Runner.default_layout r);
          ("ph", "PH", ph);
          ("gbsc-dm", "GBSC (direct-mapped cost model)", gbsc_dm);
          ( "gbsc-sa",
            (if assoc = 2 then "GBSC-SA (pair database)" else "GBSC-SA (tuple database)"),
            sa );
        ]
    in
    record :=
      Some (List.map (fun (key, label, mr, _) -> (key, label, mr)) scored, (program, sa, r.Runner.test));
    (layout_s, List.concat_map (fun (_, _, _, obs) -> obs) scored)
  in
  let setup () =
    (* The inputs each section consumes; the sections regenerate them
       inside [Runner.prepare], as [Setassoc.run_section] does. *)
    let w = layer "trace.gen" (fun () -> Gen.generate shape) in
    let _ = layer "trace.gen" (fun () -> (Gen.train_trace w, Gen.test_trace w)) in
    let key assoc label = Printf.sprintf "%d-way/%s" assoc label in
    let pass () =
      let results =
        List.map
          (fun assoc ->
            let record = ref None in
            let o = run_op (Printf.sprintf "%s/%d-way" shape.Shape.name assoc) (section assoc record) in
            (assoc, o, !record))
          scale.assocs
      in
      let done_ = List.filter_map (fun (a, _, r) -> Option.map (fun r -> (a, r)) r) results in
      let rate rows key = List.find_map (fun (k, _, mr) -> if k = key then Some mr else None) rows in
      let sa rows = Option.get (rate rows "gbsc-sa") in
      {
        ops = List.map (fun (_, o, _) -> o) results;
        quality =
          lazy
            [
              ("miss_pct.gbsc", geomean (List.map (fun (_, (rows, _)) -> pct (sa rows)) done_));
              ( "miss_ratio.gbsc_ph",
                geomean (List.map (fun (_, (rows, _)) -> sa rows /. Option.get (rate rows "ph")) done_) );
              ( "amat_cyc.gbsc",
                geomean (List.map (fun (_, (_, (program, l, test))) -> amat program l test) done_) );
            ];
        rows =
          lazy
            (List.concat_map
               (fun (a, (rows, _)) ->
                 List.map
                   (fun (_, label, mr) -> Printf.sprintf "%d-way  %-34s miss%% %.4f" a label (pct mr))
                   rows)
               done_);
        checked =
          List.concat_map
            (fun (a, (rows, _)) -> List.map (fun (_, label, mr) -> (key a label, mr)) rows)
            done_;
      }
    in
    let reference () =
      List.concat_map
        (fun assoc ->
          let s = Setassoc.run_section ~max_between ~assoc shape in
          List.map (fun row -> (key assoc row.Setassoc.label, row.Setassoc.miss_rate)) s.Setassoc.rows)
        scale.assocs
    in
    { pass; reference = Some reference }
  in
  { name = "setassoc-small"; setup_reps = 50; setup }

let all ~scale ~seed ~dir =
  [ place_paper ~scale ~seed ~dir; fig5 ~scale ~seed; setassoc ~scale ~seed ]
