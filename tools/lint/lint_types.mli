(** Finding representation shared by the rule engine and driver. *)

type finding = {
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based column *)
  cnum : int;  (** character offset of the finding's start *)
  code : string;  (** rule code, e.g. "MSP002" *)
  message : string;
}

val of_location : file:string -> code:string -> message:string -> Location.t -> finding

val compare_finding : finding -> finding -> int
(** Deterministic order: file, position, code, message. *)

val to_string : finding -> string
(** ["file:line:col: [CODE] message"] — the compiler-style report line. *)
