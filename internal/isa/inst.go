package isa

import "fmt"

// Inst is one instruction. Field use depends on the op:
//
//   - ALU 3-reg:      Rd = Rs op Rt
//   - ALU immediate:  Rd = Rs op Imm (Rd plays the role of MIPS rt)
//   - Load:           Rd = mem[Rs + Imm]
//   - Store:          mem[Rs + Imm] = Rt
//   - Branch:         compare Rs (and Rt for BEQ/BNE); Target is the taken
//     destination as a word address
//   - J/JAL:          Target is the destination word address; JAL defs RA
//   - JR/JALR:        jump to Rs; JALR defs Rd
//
// Addresses throughout the simulator are word addresses (the paper
// measures cache sizes in K-words and block sizes in words).
type Inst struct {
	Op     Op
	Rd     Reg    // destination register
	Rs     Reg    // first source / address register / jump register
	Rt     Reg    // second source / store data register
	Imm    int32  // immediate or displacement (words for mem ops)
	Target uint32 // branch/jump destination, word address
}

// Nop returns a no-operation instruction.
func Nop() Inst { return Inst{Op: NOP} }

// Class returns the pipeline class of the instruction.
func (in Inst) Class() Class { return in.Op.Class() }

// IsCTI reports whether the instruction transfers control.
func (in Inst) IsCTI() bool { return in.Op.IsCTI() }

// Def returns the general register written by the instruction, if any. No
// instruction in the ISA writes more than one general register, so this is
// the allocation-free form of Defs for hot paths. The zero register is
// never reported as a def (writes to it are discarded).
func (in Inst) Def() (Reg, bool) {
	switch in.Op.Class() {
	case ClassLoad, ClassALU:
		if in.Op == MULT || in.Op == MULTU || in.Op == DIV || in.Op == DIVU {
			// Writes HI/LO, not a general register; modelled as no def.
			return 0, false
		}
		if in.Rd != Zero {
			return in.Rd, true
		}
	case ClassJump:
		if in.Op == JAL {
			return RA, true
		}
	case ClassJumpReg:
		if in.Op == JALR && in.Rd != Zero {
			return in.Rd, true
		}
	case ClassSyscall:
		// Syscalls clobber the result registers by convention.
		return V0, true
	}
	return 0, false
}

// Defs returns the registers written by the instruction. The zero register
// is never reported as a def (writes to it are discarded).
func (in Inst) Defs() []Reg {
	if d, ok := in.Def(); ok {
		return []Reg{d}
	}
	return nil
}

// SrcRegs returns the distinct non-zero registers read by the instruction
// without allocating: s[:n] are the sources, n is at most 2. This is the
// hot-path form of Uses.
func (in Inst) SrcRegs() (s [2]Reg, n int) {
	add := func(r Reg) {
		if r == Zero || (n > 0 && s[0] == r) {
			return
		}
		s[n] = r
		n++
	}
	switch in.Op {
	case NOP:
	case LUI:
		// No register source.
	case SLL, SRL, SRA:
		add(in.Rt) // shift by immediate reads rt in MIPS encoding
	case MFHI, MFLO:
		// Reads HI/LO only.
	case MTHI, MTLO:
		add(in.Rs)
	case J:
	case JAL:
	case JR, JALR:
		add(in.Rs)
	case BLEZ, BGTZ, BLTZ, BGEZ:
		add(in.Rs)
	case BEQ, BNE:
		add(in.Rs)
		add(in.Rt)
	case SYSCALL:
		add(V0)
		add(A0)
	default:
		switch in.Op.Class() {
		case ClassLoad:
			add(in.Rs)
		case ClassStore:
			add(in.Rs)
			add(in.Rt)
		case ClassALU:
			switch in.Op {
			case ADDIU, ANDI, ORI, XORI, SLTI, SLTIU:
				add(in.Rs)
			default:
				add(in.Rs)
				add(in.Rt)
			}
		}
	}
	return
}

// Uses returns the registers read by the instruction.
func (in Inst) Uses() []Reg {
	s, n := in.SrcRegs()
	if n == 0 {
		return nil
	}
	return append([]Reg(nil), s[:n]...)
}

// AddrReg returns the address base register for a load or store, and
// whether the instruction is a memory access at all.
func (in Inst) AddrReg() (Reg, bool) {
	if in.Op.IsMem() {
		return in.Rs, true
	}
	return 0, false
}

// DefsReg reports whether the instruction writes register r.
func (in Inst) DefsReg(r Reg) bool {
	for _, d := range in.Defs() {
		if d == r {
			return true
		}
	}
	return false
}

// UsesReg reports whether the instruction reads register r.
func (in Inst) UsesReg(r Reg) bool {
	for _, u := range in.Uses() {
		if u == r {
			return true
		}
	}
	return false
}

// DependsOn reports whether in has a true (read-after-write) dependency on
// prev, i.e. in reads a register that prev writes.
func (in Inst) DependsOn(prev Inst) bool {
	for _, d := range prev.Defs() {
		if in.UsesReg(d) {
			return true
		}
	}
	return false
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch in.Op.Class() {
	case ClassNop:
		return "nop"
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rt, in.Imm, in.Rs)
	case ClassBranch:
		switch in.Op {
		case BEQ, BNE:
			return fmt.Sprintf("%s %s, %s, 0x%x", in.Op, in.Rs, in.Rt, in.Target)
		default:
			return fmt.Sprintf("%s %s, 0x%x", in.Op, in.Rs, in.Target)
		}
	case ClassJump:
		return fmt.Sprintf("%s 0x%x", in.Op, in.Target)
	case ClassJumpReg:
		if in.Op == JALR {
			return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
		}
		return fmt.Sprintf("%s %s", in.Op, in.Rs)
	case ClassSyscall:
		return "syscall"
	}
	switch in.Op {
	case LUI:
		return fmt.Sprintf("lui %s, %d", in.Rd, in.Imm)
	case ADDIU, ANDI, ORI, XORI, SLTI, SLTIU:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case SLL, SRL, SRA:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rt, in.Imm)
	case MFHI, MFLO:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case MTHI, MTLO:
		return fmt.Sprintf("%s %s", in.Op, in.Rs)
	case MULT, MULTU, DIV, DIVU:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rs, in.Rt)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
	}
}
