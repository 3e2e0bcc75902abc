(** The linker interface (Sec. 3, 4.3): access to link-time information
    through the loader table, hiding machine dependencies.

    The VAX, SPARC and 68020 share a single machine-independent
    implementation of frame-size queries (frame sizes come from the
    symbol table); the MIPS cannot, because it has no frame pointer — its
    implementation reads the runtime procedure table from the target's
    address space through the wire, exactly as the paper describes.

    The anchor-symbol technique lives here too: [lazy_data] finds an
    anchor's address in the loader table, fetches the relocated word at
    the given index from target memory, and memoizes the result — each
    such fetch happens at most once per symbol-table entry. *)

open Ldb_machine
module A = Ldb_amemory.Amemory
module V = Ldb_pscript.Value

exception Error of string

type t = {
  arch : Arch.t;
  loader : V.dict;  (** the __loader dictionary *)
  wire : A.t;
  anchor_cache : (string * int, int) Hashtbl.t;
  mutable rpt : Rpt.entry array option;  (** SIM-MIPS runtime procedure table, {!Rpt.index}ed *)
  proctable : (int * string) array Lazy.t;
      (** the loader's {!proctable_of}, decoded once per image and shared *)
}

let make ~(arch : Arch.t) ~(loader : V.dict) ~proctable ~(wire : A.t) : t =
  { arch; loader; wire; anchor_cache = Hashtbl.create 64; rpt = None; proctable }

let get_dict d key =
  match V.dict_get d key with
  | Some v -> V.to_dict v
  | None -> raise (Error ("loader table lacks /" ^ key))

let fetch32 li addr = Int32.to_int (A.fetch_i32 li.wire (A.absolute 'd' addr))

(** Address of an anchor symbol, from the loader table's anchormap. *)
let anchor_address (loader : V.dict) name =
  let am = get_dict loader "anchormap" in
  match V.dict_get am name with
  | Some v -> V.to_int v
  | None -> raise (Error ("unknown anchor symbol " ^ name))

(** The LazyData operation: the address stored at word [idx] of anchor
    [name], fetched from the target's data space on demand and memoized. *)
let lazy_data li ~name ~idx =
  match Hashtbl.find_opt li.anchor_cache (name, idx) with
  | Some v -> v
  | None ->
      let base = anchor_address li.loader name in
      let v = fetch32 li (base + (4 * idx)) in
      Hashtbl.replace li.anchor_cache (name, idx) v;
      v

(** Address of a global (external) symbol by linker name. *)
let global_address li name =
  let gm = get_dict li.loader "globalmap" in
  match V.dict_get gm name with
  | Some v -> V.to_int v
  | None -> raise (Error ("unknown global symbol " ^ name))

(** A loader map ([/anchormap] or [/globalmap]) whole, as (name,
    address) pairs in name order: the view a checker walks. *)
let address_map (loader : V.dict) (key : string) : (string * int) list =
  Hashtbl.fold (fun k v acc -> (k, V.to_int v) :: acc) (get_dict loader key).V.tbl []
  |> List.sort compare

(** A loader table's procedure table: (address, name) pairs sorted by
    address. *)
let proctable_of (loader : V.dict) : (int * string) array =
  let arr =
    match V.dict_get loader "proctable" with
    | Some v -> V.to_arr v
    | None -> raise (Error "loader table lacks /proctable")
  in
  let entries = ref [] in
  let i = ref 0 in
  while !i + 1 < Array.length arr do
    entries := (V.to_int arr.(!i), V.to_str arr.(!i + 1)) :: !entries;
    i := !i + 2
  done;
  Array.of_list (List.sort compare !entries)

(** Name and address of the procedure containing [pc]. *)
let proc_of_pc li ~pc : (int * string) option =
  let t = Lazy.force li.proctable in
  let n = Array.length t in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let addr, _ = t.(mid) in
      if addr <= pc then search (mid + 1) hi (Some t.(mid)) else search lo (mid - 1) best
  in
  if n = 0 then None else search 0 (n - 1) None

(* --- frame sizes ----------------------------------------------------------- *)

let mips_rpt li =
  match li.rpt with
  | Some r -> r
  | None -> (
      (* read the runtime procedure table out of the target address space *)
      match Rpt.read (fun addr -> Int32.of_int (fetch32 li addr)) with
      | Ok entries ->
          let r = Rpt.index entries in
          li.rpt <- Some r;
          r
      | Error m -> raise (Error m))

(** Frame size of the procedure containing [pc].

    SIM-MIPS: from the runtime procedure table in target memory (available
    even for procedures without debugging symbols).  Other targets walk
    frame-pointer chains and never need this from the linker interface. *)
let frame_size li ~pc : int option =
  match li.arch with
  | Arch.Mips ->
      Option.map (fun (e : Rpt.entry) -> e.Rpt.frame_size) (Rpt.find (mips_rpt li) ~pc)
  | _ -> None

(** Return-address save offset (from the post-prologue sp) on SIM-MIPS. *)
let ra_offset li ~pc : int option =
  match li.arch with
  | Arch.Mips -> Option.map (fun (e : Rpt.entry) -> e.Rpt.ra_offset) (Rpt.find (mips_rpt li) ~pc)
  | _ -> None
