(* perfbench: the repository's benchmark.

     main.exe --workload pipeline|serve-write|serve-mixed --seed N
              --seconds S --trace 0|1

   Runs one workload from the current directory (the repository root),
   keeping every file it writes under .bench_run/.  Prints the run
   stamp, every metric with its unit and sample count, the work
   fingerprints, and as the last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer split with --trace 1.  A traced run does the
   work of an untraced run of S/2 seconds.  Exits 1 when any correctness
   check fails. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload pipeline|serve-write|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Serve_daemon.main ();
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let run =
    match !workload with
    | "pipeline" -> Pipeline_wl.run
    | "serve-write" -> Serve_wl.run Serve_wl.Write
    | "serve-mixed" -> Serve_wl.run Serve_wl.Mixed
    | _ -> usage ()
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = ".bench_run" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n%!" !workload seed seconds trace;
  let rep = Report.create () in
  (* a traced run does half the work, so that it costs about as much
     wall time as an untraced one despite its extra replay *)
  let seconds = if trace then seconds /. 2. else seconds in
  match run ~seed ~seconds ~trace ~dir rep with
  | attempted, failed ->
      Report.print rep ~attempted ~failed;
      if not (Report.correct rep) then exit 1
  | exception e ->
      Serve_daemon.kill_all ();
      Printf.eprintf "perfbench %s: %s\n%!" !workload (Printexc.to_string e);
      exit 1
