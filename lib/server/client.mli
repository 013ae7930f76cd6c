(** Blocking client for the [mspar serve] protocol — used by the smoke
    tests, the fault harness, and the load generator.  [send]/[recv] are
    split so a caller can pipeline several requests per connection.

    Update contract (DESIGN.md §10): rids are strictly increasing per
    client id, and after a timeout or EOF the caller reconnects, sends
    [Hello] again and resends every unacked rid in order.  The server
    answers a resend with that rid's own [Ack changed] as long as it is
    one of the client's last 62 rids; an older rid answers [Error].  So
    a client that wants an exact answer for every resend keeps at most
    62 updates unacked. *)

type t

val connect : Wire.addr -> (t, string) result

val backoff_delay :
  Mspar_prelude.Rng.t -> attempt:int -> base:float -> cap:float -> float
(** Capped full-jitter backoff: a delay drawn uniformly from
    [\[0, min cap (base * 2^attempt))] — doubling ceilings with full
    jitter, so retrying clients spread out instead of reconnecting in
    synchronized waves.  Deterministic for a fixed [Rng] state. *)

val connect_retry :
  ?attempts:int ->
  ?base_delay:float ->
  ?cap:float ->
  ?seed:int ->
  Wire.addr ->
  (t, string) result
(** Retry [connect] under {!backoff_delay} (default 8 attempts, 20 ms
    base, 1 s cap) — covers both waiting for a fresh server to bind and
    reconnecting across a server restart.  [seed] fixes the jitter
    stream for reproducible schedules. *)

val connect_primary :
  ?attempts:int ->
  ?base_delay:float ->
  ?cap:float ->
  ?seed:int ->
  Wire.addr list ->
  (t * Wire.addr, string) result
(** Failover discovery: probe the addresses in order with [Role] until
    one answers as the primary, sleeping a {!backoff_delay} between
    sweeps.  A replica answers [Role] with its role, not a redirect, so
    the list must include the primary's own address.  Returns the
    connected client and the address that worked.  After a failover the
    caller must re-send its [Hello] and replay unacked rids — at-most-once
    dedup makes the replay exactly-once, with exact answers within the
    62-rid window above. *)

val send : t -> Wire.request -> (unit, string) result
(** Write one request frame (blocking until fully written). *)

val recv : ?timeout:float -> t -> (Wire.response, string) result
(** Read one response frame (default timeout 5 s).  Timeouts, EOF, and
    corrupt streams are [Error]s. *)

val request : ?timeout:float -> t -> Wire.request -> (Wire.response, string) result
(** [send] then [recv]. *)

val fd : t -> Unix.file_descr
(** The underlying socket, for select-based drivers. *)

val close : t -> unit
(** Close the socket.  Never raises. *)
