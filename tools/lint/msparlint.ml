(* msparlint — model-fidelity / determinism / hot-path lint for mspar.

   Usage:
     msparlint PATH...

   Loads the .cmt files (typed syntax trees) dune emitted for every .ml
   under the given paths and runs the MSP001–MSP011 rule set over each
   unit (doc/LINTS.md), scoped by Lint_config.  Units under lib/, bin/ and
   bench/ additionally feed an intra-package call graph for the
   interprocedural rules MSP012 (reactor sharing), MSP013 (hot-path
   allocation) and MSP014 (probe accounting).  [@lint.allow] spans are read
   from the same trees.  Findings go to stdout, per-phase timings to
   stderr.  Exits 1 on any finding or when the run exceeds its 30 s
   budget, and 2 on a usage error or when a path has no .cmt under it
   (run `dune build @check` first). *)

open Msparlint_lib

(* The interprocedural rules cover the trees that run the reactor or hot
   code; test/ is deliberately out of their scope. *)
let callgraph_roots = [ "lib"; "bin"; "bench" ]

let budget_s = 30.0

let usage () =
  prerr_endline "usage: msparlint PATH...";
  exit 2

let in_callgraph_scope file =
  List.exists (fun r -> Lint_config.under_prefix ~prefix:r file) callgraph_roots

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun arg ->
      if String.length arg > 1 && arg.[0] = '-' then begin
        Printf.eprintf "msparlint: unknown option %s\n" arg;
        usage ()
      end)
    paths;
  (match paths with [] -> usage () | _ -> ());
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "msparlint: no such path: %s\n" p;
        exit 2
      end)
    paths;
  let phases = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    phases := (name, Unix.gettimeofday () -. t0) :: !phases;
    r
  in
  let t0 = Unix.gettimeofday () in
  let units =
    match timed "cmt discovery" (fun () -> Lint_typed.load_units ~roots:paths) with
    | Ok units -> units
    | Error root ->
        Printf.eprintf "msparlint: no .cmt files under %s; run `dune build @check` first\n" root;
        exit 2
  in
  let rule_findings =
    timed "MSP001-011" (fun () ->
        List.concat_map
          (fun (u : Lint_typed.t) ->
            let mli_path = u.file ^ "i" in
            let mli = if Sys.file_exists mli_path then Some (read_file mli_path) else None in
            Lint_rules.lint_unit ~mli u)
          units)
  in
  let analysis =
    timed "call graph" (fun () ->
        Lint_typed_rules.prepare
          (List.filter (fun (u : Lint_typed.t) -> in_callgraph_scope u.file) units))
  in
  let f12 = timed "MSP012 reactor-sharing" (fun () -> Lint_typed_rules.msp012 analysis) in
  let f13 = timed "MSP013 hot-alloc" (fun () -> Lint_typed_rules.msp013 analysis) in
  let f14 = timed "MSP014 probe-accounting" (fun () -> Lint_typed_rules.msp014 analysis) in
  let findings =
    List.sort Lint_types.compare_finding
      (Lint_engine.suppress units (rule_findings @ f12 @ f13 @ f14))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  List.iter (fun f -> print_endline (Lint_types.to_string f)) findings;
  List.iter
    (fun (name, dt) -> Printf.eprintf "msparlint: %-24s %6.0f ms\n" name (dt *. 1000.))
    (List.rev !phases);
  let over_budget = elapsed > budget_s in
  if over_budget then
    Printf.eprintf "msparlint: lint took %.1f s (budget %.0f s)\n" elapsed budget_s;
  if findings <> [] then Printf.eprintf "msparlint: %d finding(s)\n" (List.length findings);
  if findings <> [] || over_budget then exit 1
