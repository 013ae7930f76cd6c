(* Shared finding representation for msparlint.

   A finding carries both the human-facing position (line, 0-based column)
   and the raw character offset [cnum] inside the file, which is what the
   suppression machinery ([@lint.allow] spans) matches against. *)

type finding = {
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based column *)
  cnum : int;  (** character offset of the finding's start *)
  code : string;  (** rule code, e.g. "MSP002" *)
  message : string;
}

let of_location ~file ~code ~message (loc : Location.t) =
  let p = loc.loc_start in
  { file; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; cnum = p.pos_cnum; code; message }

(* Deterministic output order: file, then position, then code.  Monomorphic
   comparisons only — the linter obeys its own MSP002. *)
let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.code b.code in
        if c <> 0 then c else String.compare a.message b.message

let to_string f = Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.code f.message
