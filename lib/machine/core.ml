(** Core dumps: a serialized image of a dead (or stopping) simulated
    process.

    The dump records everything the debugger's machine-independent layers
    need to answer queries post mortem: the architecture identity, the
    fatal signal with its code and pc, both register files, and the
    occupied parts of memory as sparse, CRC-32'd sections.  A dump read
    back through {!of_string} is deliberately forgiving — truncated files
    and corrupted sections come back as typed {!salvage} warnings with
    whatever was recoverable, never as a refusal to load — so a debugger
    can still salvage a backtrace from a damaged artifact (the
    graceful-degradation discipline of the wire and symbol-table layers,
    applied to the target's death itself). *)

open Ldb_util
open Bytecodec

type section = {
  sec_name : string;
  sec_base : int;
  sec_bytes : string;
  sec_crc : int;   (** CRC-32 stored in the dump *)
  sec_ok : bool;   (** false when truncated or the CRC disagrees *)
}

type t = {
  co_arch : Arch.t;
  co_signal : int;       (** fatal signal number *)
  co_code : int;         (** signal code, e.g. the faulting address *)
  co_pc : int;
  co_ctx_addr : int;     (** where the nub's saved context lives *)
  co_regs : int32 array;
  co_freg_bytes : int;   (** bytes per floating register image: 8 or 10 *)
  co_fregs : string array;  (** raw register images, [co_freg_bytes] each *)
  co_sections : section list;
}

(** What the reader had to paper over.  These ride along with the loaded
    dump; the debugger surfaces them as salvage warnings. *)
type salvage =
  | Truncated of { what : string; expected : int; got : int }
  | Bad_crc of { section : string; stored : int; computed : int }

let salvage_to_string = function
  | Truncated { what; expected; got } ->
      Printf.sprintf "truncated %s: expected %d bytes, got %d" what expected got
  | Bad_crc { section; stored; computed } ->
      Printf.sprintf "section %S fails CRC: stored %08x, computed %08x" section stored
        computed

(** Signals whose delivery ends the process for good — the ones worth a
    dump.  SIGTRAP (breakpoints) and SIGINT (fuel/debugger interrupts)
    are recoverable stops, not deaths. *)
let fatal_signal = function
  | Signal.SIGSEGV | Signal.SIGILL | Signal.SIGFPE | Signal.SIGABRT -> true
  | Signal.SIGTRAP | Signal.SIGINT -> false

(* --- the fetch/store service ------------------------------------------- *)

(** The byte-access semantics shared by the live nub and dump-backed
    memories: sizes 1/2/4/8 are fetched in the target's byte order and
    serialized little-endian (the protocol's canonical order), 10 is the
    raw 80-bit extended format, and other positive sizes up to 64 are raw
    byte runs.  Includes the SIM-MIPS context quirk: the kernel saves
    floating-point registers least-significant-word first, so 8-byte
    accesses into the saved-FP area swap words (the paper's footnote 3). *)
module Service = struct
  let ctx_base = Ram.Layout.context_base

  let le_of_int32 v =
    let b = Bytes.create 4 in
    Endian.set_u32 Little b 0 v;
    Bytes.to_string b

  let le_of_int64 v =
    let b = Bytes.create 8 in
    Endian.set_u64 Little b 0 v;
    Bytes.to_string b

  let int32_of_le s = Endian.get_u32 Little (Bytes.of_string s) 0
  let int64_of_le s = Endian.get_u64 Little (Bytes.of_string s) 0

  (** Is [addr] an 8-byte access to a saved floating-point register in a
      SIM-MIPS context? *)
  let mips_fp_word_swap (t : Target.t) addr =
    Arch.equal t.Target.arch Mips
    &&
    let lo = ctx_base + t.Target.ctx_freg_off 0
    and hi = ctx_base + t.Target.ctx_freg_off (Target.nfregs t - 1) + 8 in
    addr >= lo && addr + 8 <= hi

  (** A fetch the memory refuses, with the text {!fetch} would return. *)
  exception Refused of string

  (** The integer-fetch rule: the 1-, 2- or 4-byte value at [addr] in the
      target's byte order, zero-extended, read without building a
      string.  [fetch] serves these sizes through it, so the two agree
      on every value and every refusal. *)
  let fetch_int (ram : Ram.t) ~space ~addr ~size : int =
    if space <> 'c' && space <> 'd' then raise (Refused (Printf.sprintf "no space %c" space));
    try
      match size with
      | 1 -> Ram.get_u8 ram addr
      | 2 -> Ram.get_u16 ram addr
      | 4 -> Ram.get_u32_int ram addr
      | _ -> raise (Refused "bad fetch size")
    with Ram.Fault a -> raise (Refused (Printf.sprintf "fault at %#x" a))

  let fetch (t : Target.t) (ram : Ram.t) ~space ~addr ~size : (string, string) result =
    if space <> 'c' && space <> 'd' then Error (Printf.sprintf "no space %c" space)
    else
      try
        match size with
        | 1 | 2 | 4 ->
            let v = fetch_int ram ~space ~addr ~size in
            let b = Bytes.create size in
            for i = 0 to size - 1 do
              Bytes.unsafe_set b i (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
            done;
            Ok (Bytes.unsafe_to_string b)
        | 8 ->
            if mips_fp_word_swap t addr then begin
              (* words were saved LSW-first; swap while fetching *)
              let lo = Ram.get_u32 ram addr and hi = Ram.get_u32 ram (addr + 4) in
              Ok (le_of_int32 lo ^ le_of_int32 hi)
            end
            else Ok (le_of_int64 (Ram.get_u64 ram addr))
        | 10 ->
            (* 80-bit extended: raw packed format, SIM-68020 only *)
            Ok (Ram.read_string ram ~addr ~len:10)
        | sz when sz > 0 && sz <= 64 ->
            (* raw byte run, used for string and instruction fetches *)
            Ok (Ram.read_string ram ~addr ~len:sz)
        | _ -> Error "bad fetch size"
      with
      | Ram.Fault a -> Error (Printf.sprintf "fault at %#x" a)
      | Refused m -> Error m

  let store (t : Target.t) (ram : Ram.t) ~space ~addr (bytes : string) :
      (unit, string) result =
    if space <> 'c' && space <> 'd' then Error (Printf.sprintf "no space %c" space)
    else
      try
        (match String.length bytes with
        | 1 -> Ram.set_u8 ram addr (Char.code bytes.[0])
        | 2 ->
            let v = Char.code bytes.[0] lor (Char.code bytes.[1] lsl 8) in
            Ram.set_u16 ram addr v
        | 4 -> Ram.set_u32 ram addr (int32_of_le bytes)
        | 8 ->
            if mips_fp_word_swap t addr then begin
              Ram.set_u32 ram addr (int32_of_le (String.sub bytes 0 4));
              Ram.set_u32 ram (addr + 4) (int32_of_le (String.sub bytes 4 4))
            end
            else Ram.set_u64 ram addr (int64_of_le bytes)
        | 10 -> Ram.blit_in ram ~addr bytes
        | _ -> Ram.blit_in ram ~addr bytes);
        Ok ()
      with Ram.Fault a -> Error (Printf.sprintf "fault at %#x" a)
end

(* --- writer ------------------------------------------------------------ *)

(** The part of [\[base, limit)] worth dumping: the all-zero margins are
    trimmed off, keeping 8-byte alignment (relative to [base]) so the
    section never splits a multi-byte value; zero margins are semantically
    recoverable (fresh RAM is zero-filled).  [None] when the whole range
    is zero.  Only pages the process stored to are scanned. *)
let section_of (ram : Ram.t) ~name ~base ~limit : section option =
  match Ram.nonzero_extent ram ~lo:base ~hi:limit with
  | None -> None
  | Some (first, last) ->
      let lo = (first - base) land lnot 7 in
      let hi = min (limit - base) ((last - base + 8) land lnot 7) in
      let sec_bytes = Ram.read_string ram ~addr:(base + lo) ~len:(hi - lo) in
      Some { sec_name = name; sec_base = base + lo; sec_bytes;
             sec_crc = Crc32.string sec_bytes; sec_ok = true }

(** The nonzero parts of layout range [\[base, limit)] as sections: the
    range is split at every all-zero page and each piece trimmed by
    {!section_of}, so a stray word far into a range does not drag the
    zero pages before it into the dump.  The first piece keeps [name];
    later ones are named by their page's offset, as in ["data+8000"], so
    every section of a dump has a name of its own. *)
let sections_of (ram : Ram.t) ~name ~base ~limit : section list =
  let zero p = Ram.nonzero_extent ram ~lo:p ~hi:(min limit (p + Ram.page_size)) = None in
  let rec pieces lo acc =
    if lo >= limit then List.rev acc
    else if zero lo then pieces (lo + Ram.page_size) acc
    else
      let rec stop p = if p < limit && not (zero p) then stop (p + Ram.page_size) else min p limit in
      let hi = stop lo in
      let name = if acc = [] then name else Printf.sprintf "%s+%x" name (lo - base) in
      pieces hi (Option.to_list (section_of ram ~name ~base:lo ~limit:hi) @ acc)
  in
  pieces base []

(** Freeze a stopped process into a dump.  The register files are taken
    from the CPU (after draining any pending delayed load); memory is
    split along the standard layout into code / data / ctx / stack
    ranges, each cut into sections at its zero pages ({!sections_of}),
    trimmed of zero margins and checksummed. *)
let of_proc (p : Proc.t) ~(signal : int) ~(code : int) : t =
  let t = p.Proc.target in
  let cpu = p.Proc.cpu in
  Cpu.drain cpu;
  let freg_bytes = t.Target.ctx_freg_bytes in
  let freg_image f =
    let v = Cpu.freg cpu f in
    if freg_bytes = 10 then Float80.to_bytes v
    else
      let b = Bytes.create 8 in
      Endian.set_u64 Little b 0 (Int64.bits_of_float v);
      Bytes.to_string b
  in
  let ram = p.Proc.ram in
  let open Ram.Layout in
  let sections =
    List.concat_map
      (fun (name, base, limit) -> sections_of ram ~name ~base ~limit)
      [
        ("code", code_base, data_base);
        ("data", data_base, context_base);
        ("ctx", context_base, sysarg_base);
        ("stack", sysarg_base, Ram.size ram);
      ]
  in
  {
    co_arch = t.Target.arch;
    co_signal = signal;
    co_code = code;
    co_pc = Proc.pc p;
    co_ctx_addr = Ram.Layout.context_base;
    co_regs = Array.init (Target.nregs t) (fun r -> Cpu.reg cpu r);
    co_freg_bytes = freg_bytes;
    co_fregs = Array.init (Target.nfregs t) freg_image;
    co_sections = sections;
  }

(* --- codec ------------------------------------------------------------- *)

(* Layout (all integers little-endian u32 unless noted):
     "LDBCORE1"
     u32 len + arch name bytes
     u32 signal | u32 code | u32 pc | u32 ctx_addr
     u32 nregs | nregs × u32 register images
     u32 nfregs | u32 freg_bytes | nfregs × freg_bytes raw images
     u32 nsections
     per section: u32 len + name bytes | u32 base | u32 len | u32 crc | bytes *)

let magic = "LDBCORE1"

let to_string (co : t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_str b (Arch.name co.co_arch);
  add_u32 b co.co_signal;
  add_u32 b co.co_code;
  add_u32 b co.co_pc;
  add_u32 b co.co_ctx_addr;
  add_u32 b (Array.length co.co_regs);
  Array.iter (Buffer.add_int32_le b) co.co_regs;
  add_u32 b (Array.length co.co_fregs);
  add_u32 b co.co_freg_bytes;
  Array.iter (fun s -> Buffer.add_string b s) co.co_fregs;
  add_u32 b (List.length co.co_sections);
  List.iter
    (fun s ->
      add_str b s.sec_name;
      add_u32 b s.sec_base;
      add_u32 b (String.length s.sec_bytes);
      add_u32 b s.sec_crc;
      Buffer.add_string b s.sec_bytes)
    co.co_sections;
  Buffer.contents b

(* Plausibility bounds: past these, a length field is garbage, not data. *)
let max_regs = 4096
let max_name = 256
let max_section_bytes = 1 lsl 26

(** Load a dump.  Damage in the fixed header is a hard error (there is
    nothing to salvage without knowing the machine and the fault);
    anything after that degrades: a short register file keeps the
    registers that survived, a floating-register width other than 8 or
    10 (none {!freg_value} could read) drops the floating registers and
    everything after them, short or corrupt sections are kept with
    [sec_ok = false], and every concession is reported as a {!salvage}
    warning. *)
let of_string (s : string) : (t * salvage list, string) result =
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  let c = cursor s in
  guard
    (fun () ->
      if take c (String.length magic) "magic" <> magic then
        raise (Hard "bad magic (not an LDBCORE1 dump)");
      let arch_name = str c ~limit:max_name "arch name" in
      let arch =
        match Arch.of_name arch_name with
        | Some a -> a
        | None -> hard "unknown architecture %S" arch_name
      in
      let signal = u32 c "signal" in
      let code = u32 c "code" in
      let pc = u32 c "pc" in
      let ctx_addr = u32 c "ctx addr" in
      let nregs = u32 c "register count" in
      if nregs > max_regs then raise (Hard "implausible register count");
      (* Header parsed: from here on, damage degrades instead of failing. *)
      let regs = Array.make nregs 0l in
      let fregs = ref [||] in
      let freg_bytes = ref 8 in
      let sections = ref [] in
      (try
         for r = 0 to nregs - 1 do
           regs.(r) <- Int32.of_int (u32 c "register file")
         done;
         let nfregs = u32 c "floating register count" in
         if nfregs > max_regs then raise (Hard "implausible floating register count");
         let fb = u32 c "floating register width" in
         if fb <> 8 && fb <> 10 then
           hard "floating register width %d is not 8 or 10" fb;
         freg_bytes := fb;
         fregs := Array.init nfregs (fun f ->
             take c fb (Printf.sprintf "floating register %d" f));
         let nsections = u32 c "section count" in
         if nsections > max_regs then raise (Hard "implausible section count");
         for _ = 1 to nsections do
           let name = str c ~limit:max_name "section name" in
           let base = u32 c "section base" in
           let len = u32 c "section length" in
           if len > max_section_bytes then raise (Hard "implausible section length");
           let crc = u32 c "section crc" in
           let have = min len (remaining c) in
           if have < len then
             warn (Truncated { what = Printf.sprintf "section %S" name; expected = len;
                               got = have });
           let bytes = take c have "section bytes" in
           let ok =
             have = len
             &&
             let computed = Crc32.string bytes in
             if computed <> crc then begin
               warn (Bad_crc { section = name; stored = crc; computed });
               false
             end
             else true
           in
           sections :=
             { sec_name = name; sec_base = base; sec_bytes = bytes; sec_crc = crc;
               sec_ok = ok }
             :: !sections
         done
       with
       | Short { what; need; have } -> warn (Truncated { what; expected = need; got = have })
       | Hard m ->
           (* a garbage length field mid-body: keep what parsed, note the rest *)
           warn (Truncated { what = "dump body (" ^ m ^ ")";
                             expected = String.length s; got = c.pos }));
      let co =
        { co_arch = arch; co_signal = signal; co_code = code; co_pc = pc;
          co_ctx_addr = ctx_addr; co_regs = regs; co_freg_bytes = !freg_bytes;
          co_fregs = !fregs; co_sections = List.rev !sections }
      in
      (co, List.rev !warnings))
    ()

(* --- rehydration -------------------------------------------------------- *)

(** Blit the dump's sections into fresh zero-filled [ram], clipped to
    the address space.  Damaged sections are blitted too — partial bytes
    beat no bytes in salvage mode; {!damaged_overlap} tells callers which
    reads to distrust. *)
let blit_sections (co : t) (ram : Ram.t) : unit =
  let size = Ram.size ram in
  List.iter
    (fun s ->
      let base = max 0 s.sec_base in
      let skip = base - s.sec_base in
      let len = min (String.length s.sec_bytes - skip) (size - base) in
      if len = String.length s.sec_bytes then Ram.blit_in ram ~addr:base s.sec_bytes
      else if len > 0 then Ram.blit_in ram ~addr:base (String.sub s.sec_bytes skip len))
    co.co_sections

(** Rebuild an addressable memory from the dump's sections. *)
let to_ram (co : t) : Ram.t =
  let ram = Ram.create (Arch.endian co.co_arch) in
  blit_sections co ram;
  ram

(** Sections marked not-ok whose span overlaps [\[addr, addr+size)]. *)
let damaged_overlap (co : t) ~addr ~size : section list =
  List.filter
    (fun s ->
      (not s.sec_ok)
      && addr < s.sec_base + String.length s.sec_bytes
      && addr + size > s.sec_base)
    co.co_sections

(** Decode floating register [f] from its raw image. *)
let freg_value (co : t) (f : int) : float =
  let img = co.co_fregs.(f) in
  if co.co_freg_bytes = 10 then Float80.of_bytes img
  else Int64.float_of_bits (Endian.get_u64 Little (Bytes.of_string img) 0)

(** Rebuild a {e runnable} process from a dump: fresh zero-filled RAM
    with the sections blitted back (the margins {!section_of} trimmed
    return as the zeros they were), register files and pc from the
    dump's images.  This is the inverse of {!of_proc} for the replay
    subsystem: a checkpoint dump taken at a drain-safe point restores to
    a machine that re-executes exactly as the original did.  The caller
    chooses the [Proc.status]; the stdout buffer restarts empty — output
    produced before the dump is not machine state, so replayed output
    begins at the restore point. *)
let to_proc (co : t) : Proc.t =
  let t = Target.of_arch co.co_arch in
  let p = Proc.create t in
  blit_sections co p.Proc.ram;
  let cpu = p.Proc.cpu in
  Array.iteri (fun r v -> if r < Target.nregs t then Cpu.set_reg cpu r v) co.co_regs;
  Array.iteri
    (fun f _ -> if f < Target.nfregs t then Cpu.set_freg cpu f (freg_value co f))
    co.co_fregs;
  Proc.set_pc p co.co_pc;
  p
