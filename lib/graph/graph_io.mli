(** Graph serialization: a tolerant plain-text edge-list format, and the
    [.msgr] binary container whose lanes memory-map straight into the
    off-heap CSR.

    {2 Text format}

    [#]-prefixed comment lines, then a header line ["n m"], then
    [m] lines ["u v"] with 0-based endpoints.  Duplicate edges and
    self-loops are tolerated on input (merged/dropped by the graph
    constructor), so files from external sources load as simple graphs.
    Blank lines, interior comment lines and trailing whitespace are
    tolerated anywhere.

    {2 Binary format ([.msgr])}

    A fixed 56-byte header — magic ["MSPARGR1"], [n]/[m]/[max_degree]/
    {!Graph.checksum}/flags as little-endian int64 fields, and a CRC-32 of
    those bytes — followed by the two CSR lanes as 8-byte-aligned
    little-endian int64 words: offsets ([n+1] entries), then adjacency
    ([2m] entries).  On a 64-bit little-endian host the lane bytes are
    exactly the in-memory Bigarray representation, so {!load_mmap} opens a
    graph by validating the header and the O(n) offsets lane and mapping
    the adjacency lane {e without reading it} — opening a multi-million-
    edge graph costs O(n) page-table setup, not an O(m) parse.  Pages are
    then faulted in on demand by actual traversals, and a graph larger
    than RAM is readable through the kernel's page cache. *)

type error = { line : int; token : string option; reason : string }
(** A parse failure: 1-based [line] in the input, the offending [token]
    when one can be pointed at, and a human-readable [reason]. *)

val error_message : error -> string
(** [error_message e] renders [e] in the classic
    ["Graph_io: line %d: ..."] form used by {!of_string_exn}'s [Failure]. *)

val parse : ?max_vertices:int -> string -> (Graph.t, error) result
(** Total parser: never raises, whatever the input bytes.  [max_vertices]
    (default [1 lsl 26]) bounds the header's vertex count so junk input
    cannot drive unbounded allocation. *)

val to_string : Graph.t -> string

val of_string_exn : string -> Graph.t
(** Raising wrapper around {!parse}.
    @raise Failure on malformed input (with a line number). *)

val save : string -> Graph.t -> unit
(** [save path g] writes the graph to a file.
    @raise Sys_error if the file cannot be written. *)

val load_exn : string -> Graph.t
(** @raise Sys_error if the file cannot be read; [Failure] if malformed. *)

(** {2 The [.msgr] binary container} *)

val save_packed : string -> Graph.t -> unit
(** [save_packed path g] writes [g] as an [.msgr] container.  The write
    goes to [path ^ ".tmp"] and is renamed into place, so a concurrent
    {!load_mmap} sees either the old file or the complete new one, never a
    torn prefix.
    @raise Sys_error if the file cannot be written.
    @raise Invalid_argument on a big-endian host (the lanes are raw
    little-endian words by design). *)

val load_mmap : ?verify:bool -> string -> (Graph.t, string) result
(** [load_mmap path] opens an [.msgr] container by memory-mapping its CSR
    lanes in place — O(n) validation, no O(m) parse, no copy.  Total: any
    damage the cheap checks can see (truncation, bad magic, header CRC
    mismatch, non-8-aligned or overlong lanes, trailing bytes, a
    non-monotone or out-of-extent offsets lane, a wrong cached max degree)
    is a clean [Error], never an exception and never a read past the
    mapped extent.  Damage confined to adjacency {e values} is invisible
    to the O(n) checks by design; pass [~verify:true] to also recompute
    the full content checksum against the header (O(m): reads every lane,
    forfeiting the lazy load) — with it, any bit flip anywhere in the file
    is an [Error].  The returned graph shares pages with the file until
    {!Graph.materialize} copies it out; the underlying mapping is private
    (copy-on-write), so a concurrent writer never mutates loaded pages. *)

val load_mmap_exn : ?verify:bool -> string -> Graph.t
(** @raise Failure on any condition {!load_mmap} reports as [Error]. *)

val load_packed_exn : string -> Graph.t
(** [load_mmap ~verify:true] followed by {!Graph.materialize}: a fully
    checked, file-detached in-memory graph — the explicit path for
    workloads that outlive or rewrite the source file.
    @raise Failure on any condition {!load_mmap} reports as [Error]. *)
