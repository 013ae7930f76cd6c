open Mspar_prelude

(* Blocking client for tests, the load generator, and ad-hoc tooling.
   [send]/[recv] are split so a driver can pipeline several requests per
   connection; [request] is the one-shot convenience wrapper. *)

type t = {
  fd : Unix.file_descr;
  frames : Codec.Frames.t;
  scratch : Buffer.t;
  read_buf : bytes;
}

let connect addr =
  let fail msg = Error (Fmt.str "connect %a: %s" Wire.pp_addr addr msg) in
  match Wire.sockaddr addr with
  | Error msg -> fail msg
  | Ok sa -> (
      match
        let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
        match Unix.connect fd sa with
        | () -> fd
        | exception e ->
            (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
            raise e
      with
      | fd ->
          Ok
            {
              fd;
              frames = Codec.Frames.create ();
              scratch = Buffer.create 256;
              read_buf = Bytes.create 4096;
            }
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))

(* Capped full-jitter backoff: the ceiling doubles per attempt up to
   [cap] and the actual delay is drawn uniformly from [0, ceiling) —
   a fleet of clients retrying after a failover spreads out instead of
   reconnecting in synchronized waves.  Deterministic under a fixed
   [Rng] (regression-tested in test_server.ml). *)
let backoff_delay rng ~attempt ~base ~cap =
  let ceiling = Float.min cap (base *. (2. ** float_of_int attempt)) in
  Rng.float rng ceiling

let default_retry_seed = 0x5eed

let connect_retry ?(attempts = 8) ?(base_delay = 0.02) ?(cap = 1.0)
    ?(seed = default_retry_seed) addr =
  let rng = Rng.create seed in
  let rec go i =
    match connect addr with
    | Ok t -> Ok t
    | Error _ when i + 1 < attempts ->
        Unix.sleepf (backoff_delay rng ~attempt:i ~base:base_delay ~cap);
        go (i + 1)
    | Error _ as e -> e
  in
  go 0

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
let fd t = t.fd

let send t req =
  Buffer.clear t.scratch;
  let body = Buffer.create 32 in
  Wire.encode_request body req;
  Codec.Frames.encode t.scratch (Buffer.contents body);
  let s = Buffer.contents t.scratch in
  let len = String.length s in
  match
    let written = ref 0 in
    while !written < len do
      written := !written + Unix.write_substring t.fd s !written (len - !written)
    done
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error ("send: " ^ Unix.error_message e)

let rec recv ?(timeout = 5.0) t =
  match Codec.Frames.next t.frames with
  | `Corrupt msg -> Error ("corrupt response stream: " ^ msg)
  | `Frame body -> (
      match Wire.decode_response body with
      | Ok r -> Ok r
      | Error msg -> Error msg)
  | `Need_more -> (
      if timeout <= 0. then Error "recv: timeout"
      else
        let t0 = Clock.now_ns () in
        let left () =
          timeout -. (Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9)
        in
        match Unix.select [ t.fd ] [] [] timeout with
        | [], _, _ -> Error "recv: timeout"
        | _ :: _, _, _ -> (
            match Unix.read t.fd t.read_buf 0 (Bytes.length t.read_buf) with
            | 0 -> Error "recv: connection closed"
            | n ->
                Codec.Frames.feed t.frames (Bytes.sub_string t.read_buf 0 n);
                recv ~timeout:(left ()) t
            | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                recv ~timeout:(left ()) t
            | exception Unix.Unix_error (e, _, _) ->
                Error ("recv: " ^ Unix.error_message e))
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            recv ~timeout:(left ()) t)

let request ?timeout t req =
  match send t req with Error _ as e -> e | Ok () -> recv ?timeout t

(* Failover discovery: probe each address with Role until one answers as
   the primary.  The server answers every Role with Role_reply, so the
   list must name the primary itself.  Sweeps are separated by the same
   full-jitter backoff as [connect_retry]. *)
let connect_primary ?(attempts = 8) ?(base_delay = 0.02) ?(cap = 1.0)
    ?(seed = default_retry_seed) addrs =
  if List.is_empty addrs then Error "connect_primary: empty address list"
  else begin
    let rng = Rng.create seed in
    let probe_addr addr =
      match connect addr with
      | Error _ -> None
      | Ok t -> (
          match request t Wire.Role with
          | Ok (Wire.Role_reply { primary = true; _ }) -> Some (t, addr)
          | _ ->
              close t;
              None)
    in
    let rec sweep i =
      match List.find_map probe_addr addrs with
      | Some found -> Ok found
      | None ->
          if i + 1 < attempts then begin
            Unix.sleepf (backoff_delay rng ~attempt:i ~base:base_delay ~cap);
            sweep (i + 1)
          end
          else Error "connect_primary: no live primary found"
    in
    sweep 0
  end
