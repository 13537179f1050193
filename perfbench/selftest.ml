(* Self-test of the benchmark at toy scale ([Workloads.toy]: [small],
   2 perturbations, a 2-way section at max_between 4).  It checks the
   reporting contract rather than performance: every metric is printed
   with its unit and direction, metric names are well formed and agree
   with BENCHMARK.json, a wrong pinned value fails its op, and the traced
   pass reproduces the untraced pass and the library's entry points. *)

module Harness = Perfbench.Harness
module Workloads = Perfbench.Workloads
module Json = Trg_obs.Json

let dir =
  let d = "selftest_work" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let workloads = Workloads.all ~scale:Workloads.toy ~seed:Workloads.default_seed ~dir

let cfg = { Harness.seconds = 0.; pins = None; reference = true; artifacts = dir }

let untraced = lazy (List.map (fun w -> (w, Harness.run_untraced cfg w)) workloads)

let traced = lazy (List.map (fun w -> (w, Harness.run_traced cfg w)) workloads)

let all_specs = (Harness.failed_frac :: Harness.end_to_end) @ Harness.per_layer

let printed_with_unit_and_direction () =
  let check specs (r : Harness.result) =
    List.iter
      (fun (s : Harness.spec) ->
        let want = Printf.sprintf "(%s is better)" (Harness.better_name s.better) in
        let ok =
          List.exists
            (fun l ->
              match List.filter (( <> ) "") (String.split_on_char ' ' l) with
              | "metric" :: name :: _ :: unit_ :: _ ->
                name = s.name && unit_ = s.unit_ && String.ends_with ~suffix:want l
              | _ -> false)
            r.lines
        in
        Alcotest.(check bool) (s.name ^ " printed with unit and direction") true ok)
      specs
  in
  List.iter (fun (_, r) -> check (Harness.failed_frac :: Harness.end_to_end) r) (Lazy.force untraced);
  List.iter (fun (_, r) -> check Harness.per_layer r) (Lazy.force traced)

let result_object_has_every_metric () =
  let names r =
    match Json.member "metrics" (Harness.result_json r) with
    | Some (Json.Obj kv) -> List.map fst kv
    | _ -> []
  in
  let spec_names = List.map (fun (s : Harness.spec) -> s.name) in
  List.iter
    (fun (_, r) ->
      Alcotest.(check (list string)) "end-to-end" (spec_names Harness.end_to_end) (names r))
    (Lazy.force untraced);
  List.iter
    (fun (_, r) -> Alcotest.(check (list string)) "per-layer" (spec_names Harness.per_layer) (names r))
    (Lazy.force traced)

let names_well_formed () =
  List.iter
    (fun (s : Harness.spec) ->
      Alcotest.(check bool) (s.name ^ " is a valid name") true (Harness.valid_name s.name);
      Alcotest.(check bool)
        (s.unit_ ^ " is a valid unit") true
        (String.length s.unit_ <= 16
        && String.for_all
             (function
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
               | _ -> false)
             s.unit_))
    all_specs;
  let names = List.map (fun (s : Harness.spec) -> s.name) all_specs in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let matches_benchmark_json () =
  let json =
    match Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let field k o = Option.bind (Json.member k o) Json.to_string_opt |> Option.get in
  let specs key =
    Option.bind (Json.member key json) Json.to_list
    |> Option.get
    |> List.map (fun o -> (field "name" o, field "unit" o, field "better" o))
  in
  let ours = List.map (fun (s : Harness.spec) -> (s.name, s.unit_, Harness.better_name s.better)) in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (ours Harness.end_to_end) (specs "end_to_end");
  Alcotest.check triple "per_layer" (ours Harness.per_layer) (specs "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Harness.workload) -> w.name) workloads)
    (Option.bind (Json.member "workloads" json) Json.to_list
    |> Option.get
    |> List.map (field "name"))

let clean_runs_are_correct () =
  List.iter
    (fun ((w : Harness.workload), (r : Harness.result)) ->
      Alcotest.(check bool) (w.name ^ " correct") true r.correct;
      Alcotest.(check int) (w.name ^ " failed") 0 r.failed)
    (Lazy.force untraced @ Lazy.force traced)

let wrong_pin_fails_its_op () =
  let w = List.find (fun (w : Harness.workload) -> w.name = "fig5-go") workloads in
  let _, clean = List.find (fun ((x : Harness.workload), _) -> x == w) (Lazy.force untraced) in
  let pins = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ _; k; v ] -> Hashtbl.replace pins k (int_of_string v)
      | _ -> ())
    (Harness.render_pins w.name clean.passes);
  let run pins = Harness.run_untraced { cfg with pins = Some pins; reference = false } w in
  let pinned = run pins in
  Alcotest.(check int) "correct pins: no failed op" 0 pinned.failed;
  let key, v = List.hd (List.hd (List.hd clean.passes).ops).obs in
  Hashtbl.replace pins key (v + 1);
  let wrong = run pins in
  Alcotest.(check int) "one wrong pin: one failed op" 1 wrong.failed;
  Alcotest.(check bool) "and the run is not correct" false wrong.correct

let () =
  Alcotest.run "perfbench"
    [
      ( "contract",
        [
          Alcotest.test_case "names well formed" `Quick names_well_formed;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick matches_benchmark_json;
          Alcotest.test_case "metrics printed with unit and direction" `Quick
            printed_with_unit_and_direction;
          Alcotest.test_case "result object has every metric" `Quick
            result_object_has_every_metric;
        ] );
      ( "checks",
        [
          Alcotest.test_case "clean toy runs are correct" `Quick clean_runs_are_correct;
          Alcotest.test_case "wrong pinned value fails its op" `Quick wrong_pin_fails_its_op;
        ] );
    ]
