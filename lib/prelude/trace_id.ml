type t = { initiator : Site_id.t; seq : int }

let make ~initiator ~seq = { initiator; seq }

let equal a b = Site_id.equal a.initiator b.initiator && Int.equal a.seq b.seq

let compare a b =
  match Site_id.compare a.initiator b.initiator with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

(* "T<initiator>.<seq>", with the initiator as [Site_id.pp] prints it;
   built without a formatter, since telemetry keys are made per message. *)
let to_string t = Printf.sprintf "TS%d.%d" (Site_id.to_int t.initiator) t.seq
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
