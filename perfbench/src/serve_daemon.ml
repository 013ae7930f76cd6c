(* The serve workloads' daemon: the [mspar serve] loop ([Server.run] on
   the default server config, CLI-default journal policy: fsync batch 32
   plus the loop's group commit, no periodic snapshots or audits) over a
   fresh [Durable] journal.  The Durable config is the one the repo's
   serve benches use: Δ = 6, β = 4, ε = 0.3, matcher multiplier 2.0 — a
   combination the CLI's derived Δ cannot express, which is why the
   daemon calls the library directly instead of running the mspar
   binary.

   The daemon runs in a fresh image of the calling executable, started
   with [flag].  Unlike a bare fork, the exec leaves the caller's heap —
   the generated request streams — out of the daemon's resident set, so
   its VmHWM is the daemon's own.  Every executable that spawns a daemon
   calls [main] before anything else. *)

open Mspar_dynamic
open Mspar_server

let config ~n ~seed =
  { Durable.n; delta = 6; beta = 4; eps = 0.3; multiplier = 2.0; seed }

type t = { pid : int; addr : Wire.addr; dir : string }

(* pids still running, so an aborted run never leaves a daemon behind *)
let live : int list ref = ref []

let serve ~dir ~addr cfg =
  match Durable.create ~dir cfg with
  | exception e ->
      prerr_endline ("daemon: " ^ Printexc.to_string e);
      Server.exit_config_error
  | durable -> (
      match Server.bind_listen addr with
      | Error msg ->
          Durable.close durable;
          prerr_endline ("daemon: " ^ msg);
          Server.exit_bind_failure
      | Ok listen -> (
          match Server.run (Server.default_config addr) ~listen ~durable with
          | Ok () ->
              Durable.close durable;
              0
          | Error msg ->
              Durable.close durable;
              prerr_endline ("daemon: " ^ msg);
              1))

let flag = "--perfbench-daemon"

(* in a process started by [spawn]: serve, then exit with its code *)
let main () =
  match Sys.argv with
  | [| _; f; dir; socket; n; seed |] when f = flag ->
      let code =
        match
          serve ~dir ~addr:(Wire.Unix_path socket)
            (config ~n:(int_of_string n) ~seed:(int_of_string seed))
        with
        | c -> c
        | exception e ->
            prerr_endline ("daemon: " ^ Printexc.to_string e);
            2
      in
      exit code
  | _ -> ()

(* the daemon writes nothing to our standard output: the run's result
   must stay its last line *)
let spawn ~dir ~socket ~n ~seed =
  let exe = Sys.executable_name in
  flush_all ();
  let pid =
    Unix.create_process exe
      [| exe; flag; dir; socket; string_of_int n; string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  { pid; addr = Wire.Unix_path socket; dir }

let forget pid = live := List.filter (fun p -> p <> pid) !live

(* graceful stop: SIGTERM, then wait for the drain to finish *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  let _, status = Unix.waitpid [] t.pid in
  forget t.pid;
  status

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ())
    !live;
  live := []
