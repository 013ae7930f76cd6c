(* Shared plumbing for the serve benches: fork a real server process
   (the socket fault legs need a separate pid to kill -9), wait for it
   to accept, and shove Wire requests at it.  Everything is seeded —
   any failure reproduces from the seed printed in the assert. *)

open Mspar_prelude
open Mspar_dynamic
open Mspar_server

let config ~n ~seed =
  { Durable.n; delta = 6; beta = 4; eps = 0.3; multiplier = 2.0; seed }

type op = Ins of int * int | Del of int * int

(* a write into a freshly-crashed server must surface as EPIPE, not
   kill the harness *)
let ignore_sigpipe () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* same shape as crash_soak's op stream: 70% inserts, endpoints from a
   small vertex universe so deletes hit real edges often *)
let make_ops rng ~n ~count =
  Array.init count (fun _ ->
      let u = Rng.int rng n in
      let v = (u + 1 + Rng.int rng (n - 1)) mod n in
      if Rng.int rng 10 < 7 then Ins (u, v) else Del (u, v))

(* Forked server pids not yet reaped, so a failing leg never leaves a
   server running (and holding the harness's stdout) behind it. *)
let live : int list ref = ref []

let forget pid = live := List.filter (fun p -> p <> pid) !live

(* reap a forked server, whatever ended it *)
let wait_server pid =
  let _, status = Unix.waitpid [] pid in
  forget pid;
  status

let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ());
  forget pid

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  wait_server pid

(* Scratch paths for one leg: journal dirs and Unix socket paths under
   the temp dir, named after the harness pid.  [with_scratch] scopes
   them: every path claimed inside is cleared of a stale predecessor
   first; after a passing leg all of them are removed.  A failing leg
   SIGKILLs and reaps every server still running, keeps the paths for
   inspection and re-raises a [Failure] naming them. *)
type scratch = { mutable paths : string list }

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let claim sc path =
  if Sys.file_exists path then rm_rf path;
  sc.paths <- path :: sc.paths;
  path

let scratch_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mspar-%s-%d" name (Unix.getpid ()))

let scratch_dir sc name = claim sc (scratch_path name)
let scratch_sock sc name = claim sc (scratch_path name ^ ".sock")

let with_scratch f =
  let sc = { paths = [] } in
  match f sc with
  | r ->
      List.iter (fun p -> if Sys.file_exists p then rm_rf p) sc.paths;
      r
  | exception e -> (
      let bt = Printexc.get_raw_backtrace () in
      List.iter kill_server !live;
      match List.filter Sys.file_exists (List.rev sc.paths) with
      | [] -> Printexc.raise_with_backtrace e bt
      | kept ->
          let msg = match e with Failure m -> m | e -> Printexc.to_string e in
          failwith
            (Printf.sprintf "%s (kept for inspection: %s)" msg
               (String.concat " " kept)))

(* Fork a server child.  [fresh] creates the journal dir; otherwise the
   child recovers it (breaking the stale lock a kill -9'd predecessor
   left behind).  The child never returns. *)
let fork_server ?crash_after_ops ?(tune = fun c -> c) ~fresh ~dir ~addr cfg =
  match Unix.fork () with
  | 0 ->
      let code =
        match
          let durable =
            if fresh then Durable.create ~dir cfg
            else
              match Durable.recover dir with
              | Ok d -> d
              | Error msg -> failwith ("recover: " ^ msg)
          in
          match Server.bind_listen addr with
          | Error msg ->
              Durable.close durable;
              prerr_endline ("server child: " ^ msg);
              Server.exit_bind_failure
          | Ok listen -> (
              let scfg =
                tune { (Server.default_config addr) with Server.crash_after_ops }
              in
              match Server.run scfg ~listen ~durable with
              | Ok () ->
                  Durable.close durable;
                  0
              | Error msg ->
                  Durable.close durable;
                  prerr_endline ("server child: " ^ msg);
                  1)
        with
        | code -> code
        | exception e ->
            prerr_endline ("server child: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid ->
      live := pid :: !live;
      pid

(* Fork a replica child: bootstrap from the primary when [fresh],
   otherwise recover the replica dir (catch-up restart), then run as a
   hot standby of [upstream].  Same child discipline as [fork_server]. *)
let fork_replica ?(tune = fun c -> c) ~fresh ~dir ~addr ~upstream () =
  match Unix.fork () with
  | 0 ->
      let code =
        match
          let recover () =
            match Durable.recover dir with
            | Ok d -> d
            | Error msg -> failwith ("replica recover: " ^ msg)
          in
          let durable =
            if fresh then
              match Server.bootstrap_replica ~upstream ~dir with
              | Ok () -> recover ()
              | Error msg -> failwith ("replica bootstrap: " ^ msg)
            else recover ()
          in
          match Server.bind_listen addr with
          | Error msg ->
              Durable.close durable;
              prerr_endline ("replica child: " ^ msg);
              Server.exit_bind_failure
          | Ok listen -> (
              let scfg = tune (Server.default_config addr) in
              match Server.run ~replica_of:upstream scfg ~listen ~durable with
              | Ok () ->
                  Durable.close durable;
                  0
              | Error msg ->
                  Durable.close durable;
                  prerr_endline ("replica child: " ^ msg);
                  1)
        with
        | code -> code
        | exception e ->
            prerr_endline ("replica child: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid ->
      live := pid :: !live;
      pid

let await addr =
  match Client.connect_retry ~attempts:60 ~base_delay:0.02 addr with
  | Ok c -> c
  | Error msg -> failwith ("serve bench: cannot reach server: " ^ msg)

let expect_ok what = function
  | Ok Wire.Ok -> ()
  | Ok _ -> failwith (what ^ ": unexpected response")
  | Error msg -> failwith (what ^ ": " ^ msg)

let hello c id = expect_ok "hello" (Client.request c (Wire.Hello id))

let digest c =
  match Client.request c Wire.Checksum with
  | Ok (Wire.Digest d) -> d
  | Ok _ -> failwith "checksum: unexpected response"
  | Error msg -> failwith ("checksum: " ^ msg)

let digest_eq (a : Wire.digest) (b : Wire.digest) =
  a.Wire.op_count = b.Wire.op_count
  && Int64.equal a.Wire.graph b.Wire.graph
  && Int64.equal a.Wire.sparsifier b.Wire.sparsifier
  && a.Wire.matching = b.Wire.matching

let pp_digest d =
  Printf.sprintf "ops=%d graph=%Lx sp=%Lx |M|=%d" d.Wire.op_count d.Wire.graph
    d.Wire.sparsifier d.Wire.matching

let apply_req d ~client ~rid = function
  | Ins (u, v) -> ignore (Durable.insert_req d ~client ~rid u v)
  | Del (u, v) -> ignore (Durable.delete_req d ~client ~rid u v)

(* Uncrashed reference: the same ops applied through the same
   at-most-once entry points, in-process.  Returns the digest the
   crashed-and-recovered server must reproduce bit-for-bit. *)
let reference_digest ~dir ~client cfg ops =
  let d = Durable.create ~dir cfg in
  Array.iteri (fun i op -> apply_req d ~client ~rid:(i + 1) op) ops;
  let r = Dispatch.digest d in
  Durable.close d;
  r

