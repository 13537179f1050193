(* Section 6 in action: placement for a 2-way set-associative cache.

   On an associative cache a single interloper cannot evict a resident
   line, so the direct-mapped conflict metric overstates many conflicts.
   GBSC-SA replaces TRG_place with the pair database D(p, {r, s}) — how
   often a PAIR of blocks appears between consecutive occurrences of p,
   the arity-2 case of Tuple_db — and charges an alignment only when p
   and both pair members map to the same set.

   Run with: dune exec examples/setassoc_demo.exe *)

module Config = Trg_cache.Config
module Tuple_db = Trg_profile.Tuple_db
module Gbsc = Trg_place.Gbsc
module Gbsc_sa = Trg_place.Gbsc_sa
module Runner = Trg_eval.Runner
module Table = Trg_util.Table
module Bench = Trg_synth.Bench

let () =
  let shape = Bench.find "small" in
  let cache2 = Config.make ~size:8192 ~line_size:32 ~assoc:2 in
  let config2 = Gbsc.default_config ~cache:cache2 () in
  Printf.printf "cache: %s\n%!" (Format.asprintf "%a" Config.pp cache2);
  let r = Runner.prepare ~config:config2 shape in
  let program = Runner.program r in

  (* Build the pair database and show a few statistics. *)
  let sa_prof = Gbsc_sa.profile ~max_between:32 config2 program r.Runner.train in
  Printf.printf "pair database: %s (p, {r,s}) associations\n"
    (Table.fmt_int (Tuple_db.n_entries sa_prof.Gbsc_sa.tuples.Tuple_db.db));

  (* Compare three placements on the associative cache. *)
  let config_dm =
    Gbsc.default_config ~cache:(Config.make ~size:8192 ~line_size:32 ~assoc:1) ()
  in
  let gbsc_dm = Gbsc.place program (Gbsc.profile config_dm program r.Runner.train) in
  let gbsc_sa = Gbsc_sa.place program sa_prof in
  Table.section "miss rates on the testing input (2-way LRU)";
  Table.print
    ~header:[ "layout"; "test MR" ]
    (List.map
       (fun (label, layout) ->
         [ label; Table.fmt_pct (Runner.test_miss_rate r layout) ])
       [
         ("default", Runner.default_layout r);
         ("PH", Runner.ph_layout r);
         ("GBSC targeting direct-mapped", gbsc_dm);
         ("GBSC-SA (pair database)", gbsc_sa);
       ]);
  print_newline ();
  (* The same layouts on the direct-mapped cache of equal size, to show how
     much conflict the associativity itself absorbs. *)
  let dm = Config.make ~size:8192 ~line_size:32 ~assoc:1 in
  Table.section "same layouts on the 8KB direct-mapped cache";
  Table.print
    ~header:[ "layout"; "test MR" ]
    (List.map
       (fun (label, layout) ->
         [
           label;
           Table.fmt_pct (Runner.miss_rate_on r dm layout r.Runner.test);
         ])
       [
         ("default", Runner.default_layout r);
         ("GBSC targeting direct-mapped", gbsc_dm);
         ("GBSC-SA (pair database)", gbsc_sa);
       ])
