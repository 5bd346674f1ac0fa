open Dgc_prelude

type obj = {
  oid : Oid.t;
  mutable fields : Oid.t list;
  mutable birth : int;
  mutable size : int;
}

(* Objects live in an array indexed by allocation index: [alloc] hands
   out indices densely and in order, so slot [i] holds object [i] until
   it is freed, and [vacant] (compared physically) marks freed slots and
   the unused tail. Iteration walks ascending indices. *)
type t = {
  site : Site_id.t;
  mutable objects : obj array;
  mutable next_index : int;
  mutable live : int;
  mutable roots : Oid.t list;
  mutable resident : int;  (** running sum of live object sizes *)
}

let vacant =
  {
    oid = Oid.make ~site:(Site_id.of_int 0) ~index:(-1);
    fields = [];
    birth = -1;
    size = 0;
  }

let create site =
  {
    site;
    objects = Array.make 64 vacant;
    next_index = 0;
    live = 0;
    roots = [];
    resident = 0;
  }

let site t = t.site

let alloc ?(size = 1) t =
  let index = t.next_index in
  if index = Array.length t.objects then begin
    let grown = Array.make (2 * index) vacant in
    Array.blit t.objects 0 grown 0 index;
    t.objects <- grown
  end;
  t.next_index <- index + 1;
  let oid = Oid.make ~site:t.site ~index in
  t.objects.(index) <- { oid; fields = []; birth = index; size };
  t.live <- t.live + 1;
  t.resident <- t.resident + size;
  oid

let bytes_resident t = t.resident

let alloc_clock t = t.next_index

(* The object in slot [i], or [vacant]. *)
let slot t i = if i >= 0 && i < t.next_index then t.objects.(i) else vacant

let find t oid =
  if not (Site_id.equal (Oid.site oid) t.site) then None
  else
    let o = slot t (Oid.index oid) in
    if o == vacant then None else Some o

let mem t oid =
  Site_id.equal (Oid.site oid) t.site && slot t (Oid.index oid) != vacant

let get t oid =
  match find t oid with Some o -> o | None -> raise Not_found

let fields t oid = match find t oid with Some o -> o.fields | None -> []

let add_field t ~obj ~target =
  let o = get t obj in
  o.fields <- target :: o.fields

let remove_field t ~obj ~target =
  match find t obj with
  | None -> false
  | Some o ->
      let removed = ref false in
      let rec drop_one = function
        | [] -> []
        | x :: tl ->
            if (not !removed) && Oid.equal x target then begin
              removed := true;
              tl
            end
            else x :: drop_one tl
      in
      o.fields <- drop_one o.fields;
      !removed

let clear_fields t oid =
  match find t oid with None -> () | Some o -> o.fields <- []

let add_persistent_root t oid =
  if not (mem t oid) then
    invalid_arg "Heap.add_persistent_root: not a live local object";
  if not (List.exists (Oid.equal oid) t.roots) then
    t.roots <- oid :: t.roots

let persistent_roots t = t.roots

let iter t f =
  for i = 0 to t.next_index - 1 do
    let o = t.objects.(i) in
    if o != vacant then f o
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun o -> acc := f !acc o);
  !acc

let object_count t = t.live

let indices t =
  let acc = ref [] in
  for i = t.next_index - 1 downto 0 do
    if t.objects.(i) != vacant then acc := i :: !acc
  done;
  !acc

let free t idxs =
  (* Root indices once up front, not a root-list walk per freed index. *)
  let root_idx = Hashtbl.create (max 8 (List.length t.roots)) in
  List.iter (fun r -> Hashtbl.replace root_idx (Oid.index r) ()) t.roots;
  List.fold_left
    (fun n i ->
      let o = slot t i in
      if o == vacant || Hashtbl.mem root_idx i then n
      else begin
        t.objects.(i) <- vacant;
        t.live <- t.live - 1;
        t.resident <- t.resident - o.size;
        n + 1
      end)
    0 idxs

let pp ppf t =
  Format.fprintf ppf "@[<v>heap %a: %d objects, roots [%a]@," Site_id.pp
    t.site (object_count t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Oid.pp)
    t.roots;
  iter t (fun o ->
      Format.fprintf ppf "  %a -> [%a]@," Oid.pp o.oid
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Oid.pp)
        o.fields);
  Format.fprintf ppf "@]"
