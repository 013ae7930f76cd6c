(* msparlint — model-fidelity / determinism / hot-path lint for mspar.

   Usage:
     msparlint [--config FILE] [--baseline FILE] [--json | --sarif]
               [--ci] [--timings] [--list-rules] PATH...

   Loads the .cmt files (typed syntax trees) dune emitted for every .ml
   under the given paths and runs the MSP001–MSP011 rule set over each
   unit (doc/LINTS.md).  Units under lib/, bin/ and bench/ additionally
   feed an intra-package call graph for the interprocedural rules MSP012
   (domain races), MSP013 (hot-path allocation) and MSP014 (probe
   accounting).  [@lint.allow] spans are read from the same trees.  Exits
   nonzero when any finding is neither suppressed nor covered by the
   baseline file, and with 2 when a path has no .cmt under it (run
   `dune build @check` first).

   --ci hardens the run for continuous integration: stale baseline entries
   become errors, and the run is gated to 30 s wall clock.  --timings
   prints a per-phase breakdown to stderr. *)

open Msparlint_lib

let rules_summary =
  [
    ("MSP000", "source does not parse or type-check");
    ("MSP001", "Stdlib.Random outside lib/prelude/rng.ml (seeded determinism)");
    ("MSP002", "polymorphic compare/min/max/hash in hot-path directories");
    ("MSP003", "direct adjacency access in CONGEST protocol code");
    ("MSP004", "float log/** feeding integer rounding (ceil_log2 bug class)");
    ("MSP005", "Obj/Marshal");
    ("MSP006", "lib/ module without .mli");
    ("MSP007", "exported raising function lacking _exn suffix or @raise doc");
    ("MSP008", "Domain.spawn anywhere (every computation runs on the calling domain)");
    ("MSP009", "raw file I/O in lib/ outside the journal and Graph_io (durability funnel)");
    ("MSP010", "raw Bigarray unsafe access outside Bigvec and the CSR core (off-heap bounds)");
    ("MSP011", "raw Unix socket/fd I/O in lib/ outside lib/server, the journal and Graph_io");
    ("MSP012", "global written both inside and outside the Server.run reactor");
    ("MSP013", "per-element allocation inside a [@@hot] function");
    ("MSP014", "uncounted CONGEST adjacency access not dominated by a probe charge");
  ]

(* The interprocedural rules cover the trees that run the reactor or hot
   code; test/ is deliberately out of their scope. *)
let callgraph_roots = [ "lib"; "bin"; "bench" ]

let budget_s = 30.0

let usage () =
  prerr_endline
    "usage: msparlint [--config FILE] [--baseline FILE] [--json | --sarif] \
     [--ci] [--timings] [--list-rules] PATH...";
  exit 2

let in_callgraph_scope file =
  List.exists (fun r -> Lint_config.under_prefix ~prefix:r file) callgraph_roots

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let config = ref None in
  let baseline = ref None in
  let json = ref false in
  let sarif = ref false in
  let ci = ref false in
  let timings = ref false in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--config" :: f :: rest ->
        config := Some f;
        parse_args rest
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse_args rest
    | "--json" :: rest ->
        json := true;
        parse_args rest
    | "--sarif" :: rest ->
        sarif := true;
        parse_args rest
    | "--ci" :: rest ->
        ci := true;
        parse_args rest
    | "--timings" :: rest ->
        timings := true;
        parse_args rest
    | "--list-rules" :: _ ->
        List.iter (fun (c, d) -> Printf.printf "%s  %s\n" c d) rules_summary;
        exit 0
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Printf.eprintf "msparlint: unknown option %s\n" arg;
        usage ()
    | p :: rest ->
        paths := p :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  (match paths with [] -> usage () | _ -> ());
  if !json && !sarif then begin
    prerr_endline "msparlint: --json and --sarif are mutually exclusive";
    exit 2
  end;
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "msparlint: no such path: %s\n" p;
        exit 2
      end)
    paths;
  let cfg =
    match !config with
    | None -> Lint_config.default
    | Some f -> (
        try Lint_config.load f
        with Lint_config.Config_error msg ->
          Printf.eprintf "msparlint: %s: %s\n" f msg;
          exit 2)
  in
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
            Lint_rules.lint_unit cfg ~mli u)
          units)
  in
  let analysis =
    timed "call graph" (fun () ->
        Lint_typed_rules.prepare
          (List.filter (fun (u : Lint_typed.t) -> in_callgraph_scope u.file) units))
  in
  let f12 = timed "MSP012 domain-race" (fun () -> Lint_typed_rules.msp012 cfg analysis) in
  let f13 = timed "MSP013 hot-alloc" (fun () -> Lint_typed_rules.msp013 cfg analysis) in
  let f14 = timed "MSP014 probe-accounting" (fun () -> Lint_typed_rules.msp014 cfg analysis) in
  let findings =
    List.sort Lint_types.compare_finding
      (Lint_engine.suppress units (rule_findings @ f12 @ f13 @ f14))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let base =
    match !baseline with
    | None -> Lint_baseline.of_string ""
    | Some f -> Lint_baseline.load f
  in
  let live, baselined, unused = Lint_baseline.apply base findings in
  if !json then begin
    print_string "[";
    List.iteri
      (fun i f ->
        if i > 0 then print_string ",";
        print_string ("\n  " ^ Lint_types.to_json f))
      live;
    print_string (match live with [] -> "]\n" | _ -> "\n]\n")
  end
  else if !sarif then
    print_string (Lint_sarif.render ~rules:rules_summary ~findings:live)
  else List.iter (fun f -> print_endline (Lint_types.to_string f)) live;
  if !timings then
    List.iter
      (fun (name, dt) -> Printf.eprintf "msparlint: %-24s %6.0f ms\n" name (dt *. 1000.))
      (List.rev !phases);
  if List.length baselined > 0 then
    Printf.eprintf "msparlint: %d finding(s) suppressed by the baseline\n"
      (List.length baselined);
  let failed = ref (List.length live > 0) in
  List.iter
    (fun e ->
      if !ci then begin
        Printf.eprintf
          "msparlint: stale baseline entry (matches nothing, error under --ci): %s\n" e;
        failed := true
      end
      else Printf.eprintf "msparlint: stale baseline entry (matches nothing): %s\n" e)
    unused;
  if !ci && elapsed > budget_s then begin
    Printf.eprintf "msparlint: lint took %.1f s (budget %.0f s)\n" elapsed budget_s;
    failed := true
  end;
  if List.length live > 0 then
    Printf.eprintf "msparlint: %d finding(s)\n" (List.length live);
  if !failed then exit 1
