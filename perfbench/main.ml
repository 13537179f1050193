(* The repository benchmark.

     dune exec --root . perfbench/main.exe -- \
       --workload place-paper|fig5-go|setassoc-small \
       --seed N --seconds S --trace 0|1 [--record-expected]

   Run from the repository root.  Prints a human-readable report, then as
   its last line one JSON object: {"correct", "attempted", "failed",
   "metrics"} — the end-to-end metrics with [--trace 0], the per-layer
   metrics of a traced pass with [--trace 1].  Inputs, Chrome traces and
   self-time tables go to [.perfbench_work/].  At the default seed every
   scored layout is checked against [perfbench/expected.txt];
   [--record-expected] rewrites that workload's lines from this run. *)

module Harness = Perfbench.Harness
module Workloads = Perfbench.Workloads

let work_dir = ".perfbench_work"
let expected_file = "perfbench/expected.txt"

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--record-expected]";
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let record = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--record-expected" :: rest -> record := true; parse rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "perfbench: bad argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace when seconds > 0. ->
    let dir = Filename.concat work_dir name in
    mkdir_p dir;
    let w =
      match
        List.find_opt
          (fun (w : Harness.workload) -> w.name = name)
          (Workloads.all ~scale:Workloads.full ~seed ~dir)
      with
      | Some w -> w
      | None ->
        Printf.eprintf "perfbench: unknown workload %S\n" name;
        usage ()
    in
    let default = seed = Workloads.default_seed in
    let pins =
      if default && not !record then Some (Harness.load_pins expected_file name) else None
    in
    let cfg = { Harness.seconds; pins; reference = default; artifacts = dir } in
    let r = if trace then Harness.run_traced cfg w else Harness.run_untraced cfg w in
    if !record then begin
      let others =
        if Sys.file_exists expected_file then
          In_channel.with_open_text expected_file In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l ->
                 l <> "" && not (String.starts_with ~prefix:(name ^ " ") l))
        else []
      in
      Out_channel.with_open_text expected_file (fun oc ->
          List.iter
            (fun l -> output_string oc (l ^ "\n"))
            (others @ Harness.render_pins name r.Harness.passes))
    end;
    List.iter print_endline r.Harness.lines;
    print_endline (Trg_obs.Json.to_string (Harness.result_json r))
  | _ -> usage ()
