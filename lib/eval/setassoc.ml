module Config = Trg_cache.Config
module Table = Trg_util.Table
module Gbsc = Trg_place.Gbsc
module Gbsc_sa = Trg_place.Gbsc_sa

module Perturb = Trg_profile.Perturb
module Tuple_db = Trg_profile.Tuple_db
module Prng = Trg_util.Prng

type row = { label : string; miss_rate : float }

type section = { cache : Config.t; rows : row list }

type result = {
  bench : string;
  two_way : section;
  four_way : section;
  sa_perturbed : float * float;
      (** min/max GBSC-SA miss rate over perturbed pair databases
          (Figure 5's methodology applied to the Section 6 algorithm) *)
}

let section_for ?force_fail ?policy ~max_between ~assoc shape =
  let cache = Config.make ~size:8192 ~line_size:32 ~assoc in
  let config = Gbsc.default_config ~cache () in
  let r = Runner.prepare ~config ?policy ?force_fail shape in
  let program = Runner.program r in
  (* The direct-mapped-targeted baseline: GBSC as if the cache were DM. *)
  let config_dm =
    Gbsc.default_config ~cache:(Config.make ~size:8192 ~line_size:32 ~assoc:1) ()
  in
  let prof_dm = Gbsc.profile config_dm program r.Runner.train in
  let gbsc_dm = Gbsc.place program prof_dm in
  let sa =
    if assoc = 2 then
      (* The paper's pair database. *)
      Gbsc_sa.place program (Gbsc_sa.profile ~max_between config program r.Runner.train)
    else
      Gbsc_sa.place_tuples program
        (Gbsc_sa.profile_tuples config program r.Runner.train)
  in
  let mr = Runner.test_miss_rate r in
  {
    cache;
    rows =
      [
        { label = "default layout"; miss_rate = mr (Runner.default_layout r) };
        { label = "PH"; miss_rate = mr (Runner.ph_layout r) };
        { label = "GBSC (direct-mapped cost model)"; miss_rate = mr gbsc_dm };
        {
          label =
            (if assoc = 2 then "GBSC-SA (pair database)"
             else "GBSC-SA (tuple database)");
          miss_rate = mr sa;
        };
      ];
  }

let run_section = section_for

(* Each perturbation run draws from an index-derived PRNG, and min/max
   combine associatively, so any [lo, hi) slice is an independent work
   unit for the evaluation pool. *)
let run_perturbation ?force_fail ?policy ?(max_between = 32) ~lo ~hi shape =
  let cache = Config.make ~size:8192 ~line_size:32 ~assoc:2 in
  let config = Gbsc.default_config ~cache () in
  let r = Runner.prepare ~config ?policy ?force_fail shape in
  let program = Runner.program r in
  let prof = Gbsc_sa.profile ~max_between config program r.Runner.train in
  let rates =
    Array.init (max 1 (hi - lo)) (fun k ->
        let rng = Prng.create (31_000 + lo + k) in
        let db = Perturb.tuple_db rng ~s:Perturb.default_s prof.Gbsc_sa.tuples.Tuple_db.db in
        let select =
          Perturb.graph rng ~s:Perturb.default_s prof.Gbsc_sa.select.Trg_profile.Trg.graph
        in
        let layout =
          Gbsc.place_with config program ~select
            ~model:(Trg_place.Cost.Sa_tuples { chunks = prof.Gbsc_sa.chunks; db })
        in
        Runner.test_miss_rate r layout)
  in
  let lo = Array.fold_left Float.min rates.(0) rates in
  let hi = Array.fold_left Float.max rates.(0) rates in
  (lo, hi)

let of_parts shape ~two_way ~four_way ~sa_perturbed =
  { bench = shape.Trg_synth.Shape.name; two_way; four_way; sa_perturbed }

let run ?force_fail ?policy ?(max_between = 32) ?(runs = 8) shape =
  of_parts shape
    ~two_way:(section_for ?force_fail ?policy ~max_between ~assoc:2 shape)
    ~four_way:(section_for ?force_fail ?policy ~max_between ~assoc:4 shape)
    ~sa_perturbed:
      (run_perturbation ?force_fail ?policy ~max_between ~lo:0 ~hi:runs shape)

let print_section bench (s : section) =
  Table.section
    (Format.asprintf "SECTION 6 — %d-way set-associative cache (%s, %a)"
       s.cache.Config.assoc bench Config.pp s.cache);
  Table.print
    ~header:[ "layout"; "miss rate" ]
    (List.map (fun r -> [ r.label; Table.fmt_pct r.miss_rate ]) s.rows);
  print_newline ()

let print res =
  print_section res.bench res.two_way;
  print_section res.bench res.four_way;
  let lo, hi = res.sa_perturbed in
  Printf.printf
    "GBSC-SA under perturbed pair databases (s = 0.1): %.2f%% - %.2f%%\n\n"
    (100. *. lo) (100. *. hi)
