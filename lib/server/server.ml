open Mspar_prelude
open Mspar_dynamic

(* The serve loop: a single-threaded Unix.select reactor.

   Invariants the loop maintains:
   - group commit: every processing round ends with [Dispatch.sync_if_dirty]
     *before* any byte of the round's responses is flushed, so an Ack on
     the wire always covers a WAL fsync (zero acknowledged-update loss);
   - one backpressure rule: a connection whose out-queue exceeds the
     soft cap stops being read until it drains.  A round serves every
     complete frame one read delivered (the 4 KiB [read_buf] plus any
     carried-over partial frame bound it), so no request is refused for
     load and a connection's updates apply in arrival order;
   - misbehaving peers cost only themselves: a corrupt or malformed
     frame gets one [Error] reply and the connection is closed, idle and
     slowloris timers reap silent/dribbling peers, and the accept loop
     keeps serving everyone else;
   - graceful drain: SIGTERM/SIGINT (or a Drain request) stops accepts,
     answers in-flight updates, fsyncs, snapshots, flushes, exits 0. *)

type config = {
  addr : Wire.addr;
  max_conns : int;
  max_frame : int;
  idle_timeout : float;
  frame_timeout : float;
  seed : int;
  crash_after_ops : int option;
}

let default_config addr =
  {
    addr;
    max_conns = 128;
    max_frame = Codec.Frames.default_max_frame;
    idle_timeout = 30.;
    frame_timeout = 5.;
    seed = 1;
    crash_after_ops = None;
  }

(* distinct exit codes, shared by the CLI (see bin/main.ml serve/dynamic) *)
let exit_config_error = 3
let exit_bind_failure = 4
let exit_recovery_failure = 5

let out_soft_cap = 256 * 1024

(* ------------------------------------------------------------------ *)
(* bind                                                               *)
(* ------------------------------------------------------------------ *)

let bind_listen addr =
  match
    match addr with
    | Wire.Unix_path path ->
        (* a previous unclean shutdown leaves the socket file behind;
           binding over it needs the unlink first *)
        (match (Unix.stat path).Unix.st_kind with
        | Unix.S_SOCK -> Unix.unlink path
        | _ -> failwith (path ^ " exists and is not a socket")
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        fd
    | Wire.Tcp (host, port) ->
        let inet =
          match Unix.inet_addr_of_string host with
          | a -> a
          | exception Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } ->
                  failwith ("cannot resolve " ^ host)
              | h -> h.Unix.h_addr_list.(0)
              | exception Not_found -> failwith ("cannot resolve " ^ host))
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (inet, port));
        Unix.listen fd 64;
        fd
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (e, fn, _) ->
      Error
        (Fmt.str "cannot bind %a: %s (%s)" Wire.pp_addr addr
           (Unix.error_message e) fn)
  | exception Failure msg -> Error (Fmt.str "cannot bind %a: %s" Wire.pp_addr addr msg)

(* ------------------------------------------------------------------ *)
(* the loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Replica role state: the link to the primary, plus reconnect backoff.
   [upstream] is mutable because a Redirect from a demoted peer can
   re-point it at the new primary. *)
type replica_state = {
  mutable upstream : Wire.addr;
  mutable up : Conn.t option;
  mutable attempt : int;
  mutable next_try : float;
}

type role = Primary | Replica of replica_state

type loop = {
  cfg : config;
  listen_fd : Unix.file_descr;
  dispatch : Dispatch.t;
  metrics : Metrics.t;
  rng : Rng.t;  (* replica reconnect jitter *)
  mutable role : role;
  mutable conns : Conn.t list;
  mutable next_id : int;
  read_buf : bytes;
  scratch : Buffer.t;
}

(* seconds on the monotonic clock: idle and slowloris reaps, the drain
   deadline and replica reconnect backoff only ever compare two readings *)
let now () = Int64.to_float (Clock.now_ns ()) /. 1e9

let drop l conn =
  (* idempotent: a conn can fail twice in one round (read EOF, then a
     flush error on the already-closed fd) *)
  if List.exists (fun c -> c.Conn.id = conn.Conn.id) l.conns then begin
    Conn.close conn;
    l.conns <- List.filter (fun c -> c.Conn.id <> conn.Conn.id) l.conns;
    l.metrics.Metrics.active <- l.metrics.Metrics.active - 1
  end

let accept_ready l =
  let rec go budget =
    if budget > 0 && List.length l.conns < l.cfg.max_conns then
      match Unix.accept l.listen_fd with
      | fd, _ ->
          let conn =
            Conn.create ~max_frame:l.cfg.max_frame ~id:l.next_id ~now:(now ())
              fd
          in
          l.next_id <- l.next_id + 1;
          l.conns <- conn :: l.conns;
          l.metrics.Metrics.accepted <- l.metrics.Metrics.accepted + 1;
          l.metrics.Metrics.active <- l.metrics.Metrics.active + 1;
          go (budget - 1)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  go 16

(* ------------------------------------------------------------------ *)
(* replication: primary side                                          *)
(* ------------------------------------------------------------------ *)

let ship_chunk = 60 * 1024
let bootstrap_chunk = 200 * 1024

let uvarint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

(* longest prefix of [slice] that is whole journal frames — a ship chunk
   may cut the last frame and the follower appends verbatim, so only
   whole frames ever leave the process *)
let whole_frames_len slice =
  let bodies, _tail = Codec.Frames.decode_all slice in
  List.fold_left
    (fun acc b -> acc + uvarint_len (String.length b) + String.length b + 4)
    0 bodies

let queue_response l conn resp =
  Conn.queue conn l.scratch resp;
  l.metrics.Metrics.frames_out <- l.metrics.Metrics.frames_out + 1

(* stream the whole bootstrap (config + snapshot + covered WAL offset)
   onto the connection, chunked under the frame-size limit *)
let queue_bootstrap l conn =
  let durable = l.dispatch.Dispatch.durable in
  let op_epoch, snapshot, wal_offset = Durable.bootstrap_payload durable in
  let epoch = Durable.repl_epoch durable in
  let meta = Durable.config_bytes durable in
  let total = String.length snapshot in
  let rec go pos =
    let len = Int.min bootstrap_chunk (total - pos) in
    let last = pos + len >= total in
    queue_response l conn
      (Wire.Repl_snapshot
         { epoch; op_epoch; wal_offset; meta; last;
           chunk = String.sub snapshot pos len });
    if not last then go (pos + len)
  in
  go 0

(* Repl_hello / Repl_ack / Promote / Role are the control plane, and
   Repl_ack is one-way.  The loop intercepts them before Dispatch. *)
let handle_repl l conn req =
  let durable = l.dispatch.Dispatch.durable in
  let m = l.metrics in
  match req with
  | Wire.Role ->
      let offset =
        match Durable.replica_cursor durable with
        | Some c -> c
        | None -> Durable.durable_offset durable
      in
      queue_response l conn
        (Wire.Role_reply
           {
             primary = Dispatch.is_primary l.dispatch;
             epoch = Durable.repl_epoch durable;
             offset;
           })
  | Wire.Repl_ack { offset } -> (
      match conn.Conn.follower with
      | Some f ->
          f.Conn.acked <- Int.max f.Conn.acked offset
      | None ->
          queue_response l conn (Wire.Error "Repl_ack without Repl_hello");
          conn.Conn.state <- Conn.Closing)
  | Wire.Promote ->
      (* idempotent on a primary: epochs bump only on an actual
         replica->primary transition, so promotion records never appear
         in a shipped stream *)
      if not (Dispatch.is_primary l.dispatch) then begin
        ignore (Durable.bump_repl_epoch durable);
        Dispatch.set_primary l.dispatch;
        (match l.role with
        | Replica r ->
            (match r.up with Some c -> Conn.close c | None -> ());
            r.up <- None
        | Primary -> ());
        l.role <- Primary
      end;
      queue_response l conn Wire.Ok
  | Wire.Repl_hello { epoch; offset } ->
      if not (Dispatch.is_primary l.dispatch) then
        queue_response l conn
          (Wire.Redirect
             (Option.value l.dispatch.Dispatch.redirect ~default:""))
      else begin
        let my_e = Durable.repl_epoch durable in
        if epoch = 0 && offset = 0 then queue_bootstrap l conn
        else if epoch <> my_e then begin
          (* fence: a follower from another epoch (stale ex-primary's
             lineage) must not tail this WAL *)
          m.Metrics.repl_fenced <- m.Metrics.repl_fenced + 1;
          queue_response l conn (Wire.Repl_fence { epoch = my_e });
          conn.Conn.state <- Conn.Closing
        end
        else begin
          let ok_boundary =
            offset <= Durable.durable_offset durable
            && Result.is_ok (Journal.tail_from (Durable.wal_path durable) ~offset)
          in
          if ok_boundary then begin
            conn.Conn.follower <- Some { Conn.sent = offset; acked = offset };
            queue_response l conn Wire.Ok
          end
          else begin
            queue_response l conn
              (Wire.Error "replication offset is not a durable frame boundary");
            conn.Conn.state <- Conn.Closing
          end
        end
      end
  | _ -> assert false

(* ship-after-fsync: runs right after the group commit, so everything up
   to [durable_offset] is crash-safe before any byte of it leaves *)
let ship_followers l =
  let durable = l.dispatch.Dispatch.durable in
  let d_off = Durable.durable_offset durable in
  let epoch = Durable.repl_epoch durable in
  let followers = ref 0 in
  let worst_lag = ref 0 in
  List.iter
    (fun c ->
      match c.Conn.follower with
      | None -> ()
      | Some f ->
          incr followers;
          if
            Conn.(c.state) = Conn.Open
            && f.Conn.sent < d_off
            && Conn.pending_out c <= out_soft_cap
            (* backpressure: a follower that stops reading stops being
               shipped to; lag is visible in repl_lag, the primary's
               memory stays bounded *)
          then begin
            let want = Int.min ship_chunk (d_off - f.Conn.sent) in
            let slice =
              Journal.read_slice (Durable.wal_path durable) ~pos:f.Conn.sent
                ~len:want
            in
            let whole = whole_frames_len slice in
            if whole > 0 then begin
              queue_response l c
                (Wire.Repl_frames
                   {
                     epoch;
                     start_offset = f.Conn.sent;
                     payload = String.sub slice 0 whole;
                   });
              f.Conn.sent <- f.Conn.sent + whole
            end
          end;
          worst_lag := Int.max !worst_lag (d_off - f.Conn.acked))
    l.conns;
  l.metrics.Metrics.repl_followers <- !followers;
  l.metrics.Metrics.repl_lag <- (if !followers = 0 then 0 else !worst_lag)

(* Decode and serve every complete frame one connection has buffered.
   Returns once the buffer holds no whole frame, or the connection
   turned Closing. *)
let process_frames l conn =
  let continue = ref true in
  while !continue && Conn.(conn.state) = Conn.Open do
    match Conn.next_frame conn ~now:(now ()) with
    | `Need_more -> continue := false
    | `Corrupt msg ->
        l.metrics.Metrics.malformed <- l.metrics.Metrics.malformed + 1;
        Conn.queue conn l.scratch (Wire.Error ("corrupt frame: " ^ msg));
        conn.Conn.state <- Conn.Closing;
        continue := false
    | `Frame body -> (
        l.metrics.Metrics.frames_in <- l.metrics.Metrics.frames_in + 1;
        match Wire.decode_request body with
        | Stdlib.Error msg ->
            l.metrics.Metrics.malformed <- l.metrics.Metrics.malformed + 1;
            Conn.queue conn l.scratch (Wire.Error msg);
            conn.Conn.state <- Conn.Closing;
            continue := false
        | Stdlib.Ok req -> (
            match req with
            | Wire.Repl_hello _ | Wire.Repl_ack _ | Wire.Promote | Wire.Role ->
                handle_repl l conn req
            | _ ->
                (match req with
                | Wire.Hello id -> conn.Conn.client <- Some id
                | _ -> ());
                queue_response l conn
                  (Dispatch.handle l.dispatch ~client:conn.Conn.client req)))
  done

let read_ready l conn =
  match Conn.read_into conn l.read_buf with
  | `Blocked -> ()
  | `Eof ->
      (* mid-request disconnect: whatever was acked is durable, the rest
         was never acknowledged — just reap the connection *)
      drop l conn
  | `Data n ->
      Conn.feed conn ~now:(now ()) (Bytes.sub_string l.read_buf 0 n) n;
      process_frames l conn

let flush_conn l conn =
  match Conn.flush conn with
  | `Done ->
      if Conn.(conn.state) = Conn.Closing then drop l conn
  | `Partial _ -> ()
  | `Error -> drop l conn

let reap_timeouts l =
  let t = now () in
  List.iter
    (fun conn ->
      if Conn.(conn.state) = Conn.Open then begin
        (match conn.Conn.partial_since with
        | Some since when t -. since > l.cfg.frame_timeout ->
            (* slowloris: a frame has been dribbling in for too long *)
            drop l conn
        | Some _ | None -> ());
        if
          Conn.(conn.state) = Conn.Open
          && Option.is_none conn.Conn.follower
          (* a caught-up follower is legitimately silent between ops *)
          && t -. conn.Conn.last_activity > l.cfg.idle_timeout
        then drop l conn
      end)
    l.conns

(* ------------------------------------------------------------------ *)
(* replication: replica side                                          *)
(* ------------------------------------------------------------------ *)

let drop_upstream l r =
  (match r.up with Some c -> Conn.close c | None -> ());
  r.up <- None;
  r.attempt <- r.attempt + 1;
  r.next_try <-
    now () +. Client.backoff_delay l.rng ~attempt:r.attempt ~base:0.05 ~cap:2.0

let try_connect_upstream l r =
  match Client.connect r.upstream with
  | Error _ -> drop_upstream l r  (* schedules the jittered retry *)
  | Ok ct -> (
      let durable = l.dispatch.Dispatch.durable in
      match Durable.replica_cursor durable with
      | None -> Client.close ct  (* promoted while connecting; done *)
      | Some cursor ->
          (* adopt the raw fd into a Conn so the select loop drives it *)
          let conn =
            Conn.create ~max_frame:l.cfg.max_frame ~id:l.next_id ~now:(now ())
              (Client.fd ct)
          in
          l.next_id <- l.next_id + 1;
          Conn.queue_request conn l.scratch
            (Wire.Repl_hello
               { epoch = Durable.repl_epoch durable; offset = cursor });
          r.up <- Some conn;
          r.attempt <- 0)

let handle_upstream_resp l r resp ~applied =
  let durable = l.dispatch.Dispatch.durable in
  let m = l.metrics in
  match resp with
  | Wire.Repl_frames { epoch; start_offset; payload } ->
      let cursor = Option.value (Durable.replica_cursor durable) ~default:(-1) in
      if epoch <> Durable.repl_epoch durable || start_offset <> cursor then begin
        (* wrong epoch or a gap: drop the link and re-handshake from our
           durable cursor rather than guess *)
        m.Metrics.repl_fenced <- m.Metrics.repl_fenced + 1;
        drop_upstream l r
      end
      else begin
        match
          Durable.apply_shipped durable payload ~on_update:(fun ~u ~v ~changed ->
              if changed then
                Mspar_lca.Oracle.invalidate_edge (Dispatch.oracle l.dispatch) u v)
        with
        | Ok n ->
            m.Metrics.ops_applied <- m.Metrics.ops_applied + n;
            applied := true
        | Error msg ->
            prerr_endline ("mspar serve: replication apply failed: " ^ msg);
            drop_upstream l r
      end
  | Wire.Repl_fence { epoch } ->
      m.Metrics.repl_fenced <- m.Metrics.repl_fenced + 1;
      Printf.eprintf "mspar serve: fenced by upstream at epoch %d\n%!" epoch;
      drop_upstream l r
  | Wire.Redirect hint ->
      (match Wire.addr_of_string hint with
      | Ok a -> r.upstream <- a
      | Error _ -> ());
      drop_upstream l r
  | Wire.Ok -> ()  (* hello accepted; frames follow *)
  | Wire.Repl_snapshot _ ->
      (* a bootstrap stream mid-session means the primary thinks we are
         fresh — our hello must have raced; re-handshake *)
      drop_upstream l r
  | Wire.Ack _ | Wire.Bool _ | Wire.Digest _ | Wire.Draining
  | Wire.Stats_reply _ | Wire.Error _ | Wire.Role_reply _ ->
      drop_upstream l r

let upstream_read l r conn =
  match Conn.read_into conn l.read_buf with
  | `Blocked -> ()
  | `Eof -> drop_upstream l r
  | `Data n ->
      Conn.feed conn ~now:(now ()) (Bytes.sub_string l.read_buf 0 n) n;
      let applied = ref false in
      let continue = ref true in
      let alive () = match r.up with Some c -> c == conn | None -> false in
      while !continue && alive () do
        match Conn.next_frame conn ~now:(now ()) with
        | `Need_more -> continue := false
        | `Corrupt _ -> drop_upstream l r
        | `Frame body -> (
            match Wire.decode_response body with
            | Stdlib.Error _ -> drop_upstream l r
            | Stdlib.Ok resp -> handle_upstream_resp l r resp ~applied)
      done;
      if !applied && alive () then begin
        (* replica group commit: fsync the appended frames, then ack the
           new durable cursor — an acked offset always survives kill -9 *)
        Durable.sync l.dispatch.Dispatch.durable;
        match Durable.replica_cursor l.dispatch.Dispatch.durable with
        | Some cursor ->
            Conn.queue_request conn l.scratch (Wire.Repl_ack { offset = cursor })
        | None -> ()
      end

(* synchronous snapshot fetch over a blocking client — how [--replica-of]
   seeds an empty dir before entering the serve loop *)
let bootstrap_replica ~upstream ~dir =
  match Client.connect_retry upstream with
  | Error msg -> Error ("bootstrap: " ^ msg)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.send c (Wire.Repl_hello { epoch = 0; offset = 0 }) with
          | Error msg -> Error ("bootstrap: " ^ msg)
          | Ok () ->
              let buf = Buffer.create 65536 in
              let rec collect () =
                match Client.recv ~timeout:30. c with
                | Error msg -> Error ("bootstrap: " ^ msg)
                | Ok
                    (Wire.Repl_snapshot
                      { epoch; op_epoch; wal_offset; meta; last; chunk }) ->
                    Buffer.add_string buf chunk;
                    if last then
                      Durable.bootstrap_replica ~dir ~config_bytes:meta
                        ~op_epoch ~wal_offset ~repl_epoch:epoch
                        ~snapshot:(Buffer.contents buf)
                    else collect ()
                | Ok (Wire.Redirect hint) ->
                    Error
                      (if hint = "" then "bootstrap: upstream is not the primary"
                       else "bootstrap: upstream is not the primary (try " ^ hint ^ ")")
                | Ok (Wire.Repl_fence { epoch }) ->
                    Error (Printf.sprintf "bootstrap: fenced at epoch %d" epoch)
                | Ok _ -> Error "bootstrap: unexpected response"
              in
              collect ())

let drain_flush l ~deadline =
  (* push the final responses out, but never hang on a dead peer *)
  let rec go () =
    let pending = List.filter (fun c -> Conn.pending_out c > 0) l.conns in
    if not (List.is_empty pending) && now () < deadline then begin
      let wfds = List.map (fun c -> c.Conn.fd) pending in
      (match Unix.select [] wfds [] 0.05 with
      | _, ws, _ ->
          List.iter
            (fun c ->
              if List.memq c.Conn.fd ws then ignore (Conn.flush c))
            pending
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

let unlink_socket cfg =
  match cfg.addr with
  | Wire.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error (_, _, _) -> ())
  | Wire.Tcp _ -> ()

let serve ?replica_of cfg ~listen ~(durable : Durable.t) =
  let metrics = Metrics.create () in
  let redirect = Option.map (Fmt.str "%a" Wire.pp_addr) replica_of in
  let dispatch =
    Dispatch.create ?crash_after_ops:cfg.crash_after_ops ?redirect ~metrics
      durable
  in
  let term = ref false in
  let set_handler sg f = Sys.signal sg (Sys.Signal_handle f) in
  let old_term = set_handler Sys.sigterm (fun _ -> term := true) in
  let old_int = set_handler Sys.sigint (fun _ -> term := true) in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore () =
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Unix.set_nonblock listen;
  let role =
    match replica_of with
    | None -> Primary
    | Some upstream ->
        Replica { upstream; up = None; attempt = 0; next_try = 0. }
  in
  let l =
    {
      cfg;
      listen_fd = listen;
      dispatch;
      metrics;
      rng = Rng.create cfg.seed;
      role;
      conns = [];
      next_id = 0;
      read_buf = Bytes.create 4096;
      scratch = Buffer.create 256;
    }
  in
  Fun.protect ~finally:restore (fun () ->
      while not (!term || dispatch.Dispatch.draining) do
        (* replica: keep the upstream link alive (jittered backoff) *)
        (match l.role with
        | Replica r when Option.is_none r.up && now () >= r.next_try ->
            try_connect_upstream l r
        | Replica _ | Primary -> ());
        let up_conn =
          match l.role with Replica { up; _ } -> up | Primary -> None
        in
        let accepting = List.length l.conns < cfg.max_conns in
        let rfds =
          (if accepting then [ listen ] else [])
          @ (match up_conn with Some c -> [ c.Conn.fd ] | None -> [])
          @ List.filter_map
              (fun c ->
                if
                  Conn.(c.state) = Conn.Open
                  && Conn.pending_out c <= out_soft_cap
                then Some c.Conn.fd
                else None)
              l.conns
        in
        let wfds =
          (match up_conn with
          | Some c when Conn.pending_out c > 0 -> [ c.Conn.fd ]
          | Some _ | None -> [])
          @ List.filter_map
              (fun c -> if Conn.pending_out c > 0 then Some c.Conn.fd else None)
              l.conns
        in
        match Unix.select rfds wfds [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rs, ws, _ ->
            if List.memq listen rs then accept_ready l;
            List.iter
              (fun c -> if List.memq c.Conn.fd rs then read_ready l c)
              l.conns;
            (match (l.role, up_conn) with
            | Replica r, Some c
              when (match r.up with Some c' -> c' == c | None -> false)
                   && List.memq c.Conn.fd rs ->
                upstream_read l r c
            | _ -> ());
            (* group commit BEFORE any response byte leaves the process *)
            Dispatch.sync_if_dirty dispatch;
            (* ship-after-fsync: followers see only crash-safe bytes *)
            if Dispatch.is_primary dispatch then ship_followers l;
            List.iter
              (fun c ->
                if List.memq c.Conn.fd ws || Conn.pending_out c > 0 then
                  flush_conn l c)
              l.conns;
            (match l.role with
            | Replica ({ up = Some c; _ } as r) when Conn.pending_out c > 0 -> (
                match Conn.flush c with
                | `Error -> drop_upstream l r
                | `Done | `Partial _ -> ())
            | Replica _ | Primary -> ());
            reap_timeouts l
      done;
      (* ---- drain ---- *)
      dispatch.Dispatch.draining <- true;
      (try Unix.close listen with Unix.Unix_error (_, _, _) -> ());
      (* final sweep: serve what is already buffered (updates now answer
         Draining), then make everything durable *)
      List.iter
        (fun c -> if Conn.(c.state) = Conn.Open then process_frames l c)
        l.conns;
      Dispatch.sync_if_dirty dispatch;
      (* a replica must not append its own Epoch frame — that would break
         byte-identity with the primary's shipped suffix *)
      (match Durable.replica_cursor durable with
      | Some _ -> Durable.snapshot_blob_only durable
      | None -> Durable.snapshot_now durable);
      drain_flush l ~deadline:(now () +. 1.0);
      List.iter Conn.close l.conns;
      l.conns <- [];
      (match l.role with
      | Replica { up = Some c; _ } -> Conn.close c
      | Replica _ | Primary -> ());
      unlink_socket cfg;
      Ok ())

(* The role comes from a CLI flag; the journal records what the directory
   really is.  Serving a mismatch either acks writes on a replica the
   primary never sees (they diverge silently on rejoin) or leaves a
   primary redirecting every update to an "upstream" it can never
   replicate from. *)
let role_mismatch ?replica_of durable =
  let dir = Filename.dirname (Durable.wal_path durable) in
  match (replica_of, Durable.replica_cursor durable) with
  | Some upstream, None ->
      Some
        (Fmt.str
           "--replica-of %a given, but journal dir %s belongs to a primary; \
            start it without --replica-of, or remove the directory to \
            re-bootstrap it as a replica"
           Wire.pp_addr upstream dir)
  | None, Some _ ->
      Some
        (Fmt.str
           "journal dir %s belongs to an un-promoted replica; start it with \
            --replica-of ADDR (then `mspar promote` it to make it a primary), \
            or remove the directory to re-bootstrap it"
           dir)
  | Some _, Some _ | None, None -> None

let run ?replica_of cfg ~listen ~durable =
  match role_mismatch ?replica_of durable with
  | None -> serve ?replica_of cfg ~listen ~durable
  | Some msg ->
      (try Unix.close listen with Unix.Unix_error (_, _, _) -> ());
      unlink_socket cfg;
      Error msg
