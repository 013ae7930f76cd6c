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
    let sa =
      match Wire.sockaddr addr with Ok sa -> sa | Error msg -> failwith msg
    in
    (match sa with
    | Unix.ADDR_UNIX path -> (
        (* a previous unclean shutdown leaves the socket file behind;
           binding over it needs the unlink first *)
        match (Unix.stat path).Unix.st_kind with
        | Unix.S_SOCK -> Unix.unlink path
        | _ -> failwith (path ^ " exists and is not a socket")
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
    | Unix.ADDR_INET _ -> ());
    let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sa;
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

(* Whether this node is a replica is read from its journal
   ([Durable.replica_cursor]) and nowhere else.  A replica's link to its
   primary is one more connection in [conns] (peer [Upstream]); the loop
   keeps only that link's reconnect backoff. *)
type loop = {
  cfg : config;
  listen_fd : Unix.file_descr;
  dispatch : Dispatch.t;
  metrics : Metrics.t;
  rng : Rng.t;  (* upstream reconnect jitter *)
  mutable conns : Conn.t list;
  mutable next_id : int;
  mutable attempt : int;  (* upstream links lost or refused in a row *)
  mutable next_try : float;  (* no upstream dial before this time *)
  read_buf : bytes;
  scratch : Buffer.t;
}

(* seconds on the monotonic clock: idle and slowloris reaps, the drain
   deadline and replica reconnect backoff only ever compare two readings *)
let now () = Int64.to_float (Clock.now_ns ()) /. 1e9

let is_upstream c =
  match c.Conn.peer with
  | Conn.Upstream -> true
  | Conn.Client _ | Conn.Follower _ -> false

(* schedule the next upstream dial under jittered backoff *)
let backoff l =
  l.attempt <- l.attempt + 1;
  l.next_try <-
    now () +. Client.backoff_delay l.rng ~attempt:l.attempt ~base:0.05 ~cap:2.0

let drop l conn =
  (* idempotent: a conn can fail twice in one round (read EOF, then a
     flush error on the already-closed fd) *)
  if List.exists (fun c -> c.Conn.id = conn.Conn.id) l.conns then begin
    Conn.close conn;
    l.conns <- List.filter (fun c -> c.Conn.id <> conn.Conn.id) l.conns;
    (* the upstream was dialled, not accepted: it is redialled instead *)
    if is_upstream conn then backoff l
    else l.metrics.Metrics.active <- l.metrics.Metrics.active - 1
  end

let accept_ready l =
  let rec go budget =
    if budget > 0 && l.metrics.Metrics.active < l.cfg.max_conns then
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

(* longest prefix of [slice] that is whole journal frames — a ship chunk
   may cut the last frame and the follower appends verbatim, so only
   whole frames ever leave the process *)
let whole_frames_len slice =
  List.fold_left
    (fun acc b -> acc + Codec.Frames.frame_size (String.length b))
    0
    (fst (Codec.Frames.decode_all slice))

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
  let replica = Option.is_some (Durable.replica_cursor durable) in
  match req with
  | Wire.Role ->
      let offset =
        Option.value (Durable.replica_cursor durable)
          ~default:(Durable.durable_offset durable)
      in
      queue_response l conn
        (Wire.Role_reply
           { primary = not replica; epoch = Durable.repl_epoch durable; offset })
  | Wire.Repl_ack { offset } -> (
      match conn.Conn.peer with
      | Conn.Follower f -> f.Conn.acked <- Int.max f.Conn.acked offset
      | Conn.Client _ | Conn.Upstream ->
          queue_response l conn (Wire.Error "Repl_ack without Repl_hello");
          conn.Conn.state <- Conn.Closing)
  | Wire.Promote ->
      (* idempotent on a primary: epochs bump only on an actual
         replica->primary transition, so promotion records never appear
         in a shipped stream *)
      if replica then begin
        ignore (Durable.bump_repl_epoch durable);
        List.iter (fun c -> if is_upstream c then drop l c) l.conns
      end;
      queue_response l conn Wire.Ok
  | Wire.Repl_hello { epoch; offset } ->
      if replica then queue_response l conn (Dispatch.redirect l.dispatch)
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
            conn.Conn.peer <- Conn.Follower { Conn.sent = offset; acked = offset };
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
      match c.Conn.peer with
      | Conn.Client _ | Conn.Upstream -> ()
      | Conn.Follower f ->
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

(* ------------------------------------------------------------------ *)
(* replication: replica side                                          *)
(* ------------------------------------------------------------------ *)

(* dial the upstream and queue the handshake from our durable cursor *)
let connect_upstream l addr ~cursor =
  match Client.connect addr with
  | Error _ -> backoff l
  | Ok ct ->
      let conn =
        Conn.create ~max_frame:l.cfg.max_frame ~id:l.next_id ~now:(now ())
          (Client.fd ct)
      in
      conn.Conn.peer <- Conn.Upstream;
      l.next_id <- l.next_id + 1;
      Conn.queue_request conn l.scratch
        (Wire.Repl_hello
           { epoch = Durable.repl_epoch l.dispatch.Dispatch.durable; offset = cursor });
      l.conns <- conn :: l.conns;
      l.attempt <- 0

(* one response from the primary, read off the upstream link *)
let upstream_response l conn body =
  let durable = l.dispatch.Dispatch.durable in
  let m = l.metrics in
  match Wire.decode_response body with
  | Stdlib.Ok (Wire.Repl_frames { epoch; start_offset; payload }) -> (
      if
        epoch <> Durable.repl_epoch durable
        || Durable.replica_cursor durable <> Some start_offset
      then begin
        (* wrong epoch or a gap: drop the link and re-handshake from our
           durable cursor rather than guess *)
        m.Metrics.repl_fenced <- m.Metrics.repl_fenced + 1;
        drop l conn
      end
      else
        match
          Durable.apply_shipped durable payload ~on_update:(fun ~u ~v ~changed ->
              if changed then
                Mspar_lca.Oracle.invalidate_edge (Dispatch.oracle l.dispatch) u v)
        with
        | Ok n ->
            m.Metrics.ops_applied <- m.Metrics.ops_applied + n;
            (* replica group commit: the loop fsyncs the appended frames
               before this ack leaves, so an acked offset survives kill -9 *)
            l.dispatch.Dispatch.dirty <- true;
            Conn.queue_request conn l.scratch
              (Wire.Repl_ack { offset = start_offset + String.length payload })
        | Error msg ->
            prerr_endline ("mspar serve: replication apply failed: " ^ msg);
            drop l conn)
  | Stdlib.Ok (Wire.Repl_fence { epoch }) ->
      m.Metrics.repl_fenced <- m.Metrics.repl_fenced + 1;
      Printf.eprintf "mspar serve: fenced by upstream at epoch %d\n%!" epoch;
      drop l conn
  | Stdlib.Ok (Wire.Redirect hint) ->
      (* our upstream is itself a replica: follow it to its primary, which
         our own Redirects then name too *)
      (match Wire.addr_of_string hint with
      | Ok a -> l.dispatch.Dispatch.upstream <- Some a
      | Error _ -> ());
      drop l conn
  | Stdlib.Ok Wire.Ok -> ()  (* hello accepted; frames follow *)
  | Stdlib.Ok (Wire.Repl_snapshot _) ->
      (* a bootstrap stream on a live link means the primary thinks we are
         fresh — our hello must have raced; re-handshake *)
      drop l conn
  | Stdlib.Ok
      ( Wire.Ack _ | Wire.Bool _ | Wire.Digest _ | Wire.Draining
      | Wire.Stats_reply _ | Wire.Error _ | Wire.Role_reply _ )
  | Stdlib.Error _ ->
      drop l conn

(* ------------------------------------------------------------------ *)
(* per-connection I/O                                                 *)
(* ------------------------------------------------------------------ *)

let serve_request l conn body =
  l.metrics.Metrics.frames_in <- l.metrics.Metrics.frames_in + 1;
  match Wire.decode_request body with
  | Stdlib.Error msg ->
      l.metrics.Metrics.malformed <- l.metrics.Metrics.malformed + 1;
      Conn.queue conn l.scratch (Wire.Error msg);
      conn.Conn.state <- Conn.Closing
  | Stdlib.Ok
      ((Wire.Repl_hello _ | Wire.Repl_ack _ | Wire.Promote | Wire.Role) as req)
    ->
      handle_repl l conn req
  | Stdlib.Ok req ->
      (match req with
      | Wire.Hello id -> conn.Conn.peer <- Conn.Client (Some id)
      | _ -> ());
      let client =
        match conn.Conn.peer with
        | Conn.Client c -> c
        | Conn.Follower _ | Conn.Upstream -> None
      in
      queue_response l conn (Dispatch.handle l.dispatch ~client req)

(* Decode and serve every complete frame one connection has buffered:
   requests from clients and followers, responses on the upstream link.
   Returns once the buffer holds no whole frame, or the connection
   turned Closing. *)
let process_frames l conn =
  let continue = ref true in
  while !continue && Conn.(conn.state) = Conn.Open do
    match Conn.next_frame conn ~now:(now ()) with
    | `Need_more -> continue := false
    | `Corrupt _ when is_upstream conn -> drop l conn
    | `Corrupt msg ->
        l.metrics.Metrics.malformed <- l.metrics.Metrics.malformed + 1;
        Conn.queue conn l.scratch (Wire.Error ("corrupt frame: " ^ msg));
        conn.Conn.state <- Conn.Closing
    | `Frame body ->
        if is_upstream conn then upstream_response l conn body
        else serve_request l conn body
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
        match conn.Conn.peer with
        | Conn.Client _
          when Conn.(conn.state) = Conn.Open
               && t -. conn.Conn.last_activity > l.cfg.idle_timeout ->
            drop l conn
        | Conn.Client _ | Conn.Follower _ | Conn.Upstream ->
            (* a caught-up follower, like the upstream of a caught-up
               replica, is legitimately silent between ops *)
            ()
      end)
    l.conns

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
  let dispatch =
    Dispatch.create ?crash_after_ops:cfg.crash_after_ops ?upstream:replica_of
      ~metrics durable
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
  let l =
    {
      cfg;
      listen_fd = listen;
      dispatch;
      metrics;
      rng = Rng.create cfg.seed;
      conns = [];
      next_id = 0;
      attempt = 0;
      next_try = 0.;
      read_buf = Bytes.create 4096;
      scratch = Buffer.create 256;
    }
  in
  Fun.protect ~finally:restore (fun () ->
      while not (!term || dispatch.Dispatch.draining) do
        (* a replica keeps its upstream link alive (jittered backoff) *)
        (match (Durable.replica_cursor durable, dispatch.Dispatch.upstream) with
        | Some cursor, Some addr
          when now () >= l.next_try && not (List.exists is_upstream l.conns) ->
            connect_upstream l addr ~cursor
        | _ -> ());
        let accepting = metrics.Metrics.active < cfg.max_conns in
        let rfds =
          (if accepting then [ listen ] else [])
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
          List.filter_map
            (fun c -> if Conn.pending_out c > 0 then Some c.Conn.fd else None)
            l.conns
        in
        match Unix.select rfds wfds [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rs, ws, _ ->
            if List.memq listen rs then accept_ready l;
            List.iter
              (fun c ->
                (* a Promote earlier in this pass may have dropped the
                   upstream *)
                if Conn.(c.state) = Conn.Open && List.memq c.Conn.fd rs then
                  read_ready l c)
              l.conns;
            (* group commit BEFORE any response byte leaves the process *)
            Dispatch.sync_if_dirty dispatch;
            (* ship-after-fsync: followers see only crash-safe bytes *)
            ship_followers l;
            List.iter
              (fun c ->
                if List.memq c.Conn.fd ws || Conn.pending_out c > 0 then
                  flush_conn l c)
              l.conns;
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
      Durable.snapshot_now durable;
      drain_flush l ~deadline:(now () +. 1.0);
      List.iter Conn.close l.conns;
      l.conns <- [];
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
