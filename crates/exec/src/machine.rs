//! Machine state: parameter bindings and dense array storage.

use inl_ir::{ArrayId, Program, VarKey};
use inl_linalg::Int;

/// A dense row-major multi-dimensional `f64` array.
#[derive(Clone, Debug)]
pub struct ArrayData {
    /// Name (copied from the declaration, used to match arrays across
    /// programs whose ids differ).
    pub name: String,
    /// Extent of each dimension.
    pub dims: Vec<usize>,
    /// Row-major storage, length `Π dims`.
    pub data: Vec<f64>,
}

impl ArrayData {
    /// Flatten a multi-index.
    ///
    /// # Panics
    /// If out of bounds or of wrong arity.
    #[inline]
    pub fn flat(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.dims.len(),
            "array {}: arity mismatch",
            self.name
        );
        let mut f = 0usize;
        for (d, (&i, &ext)) in idx.iter().zip(&self.dims).enumerate() {
            assert!(
                i < ext,
                "array {}: index {i} out of bounds {ext} in dimension {d}",
                self.name
            );
            f = f * ext + i;
        }
        f
    }

    /// Read an element.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.flat(idx)]
    }

    /// Write an element.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let f = self.flat(idx);
        self.data[f] = v;
    }
}

/// Machine state for one program execution.
#[derive(Clone, Debug)]
pub struct Machine {
    params: Vec<Int>,
    arrays: Vec<ArrayData>,
}

impl Machine {
    /// Allocate arrays for `p` with parameters bound to `params`
    /// (positional by `ParamId`), each cell initialized by
    /// `init(array_name, multi_index)`.
    ///
    /// # Panics
    /// If a parameter is missing, an extent is non-positive or does not fit
    /// `usize`, or an array's cell count overflows it.
    pub fn new(p: &Program, params: &[Int], init: &dyn Fn(&str, &[usize]) -> f64) -> Self {
        assert_eq!(params.len(), p.nparams(), "parameter arity mismatch");
        let lookup = |v: VarKey| -> Int {
            match v {
                VarKey::Param(pr) => params[pr.0],
                VarKey::Loop(_) => panic!("array extent references a loop variable"),
            }
        };
        let arrays = p
            .arrays()
            .map(|a| {
                let decl = p.array_decl(a);
                let dims: Vec<usize> = decl
                    .dims
                    .iter()
                    .map(|e| {
                        let ext = e.eval_int(&lookup).expect("array extent not integral");
                        assert!(ext > 0, "array {} has non-positive extent {ext}", decl.name);
                        usize::try_from(ext).unwrap_or_else(|_| {
                            panic!("array {}: extent {ext} does not fit usize", decl.name)
                        })
                    })
                    .collect();
                let total = dims
                    .iter()
                    .try_fold(1usize, |n, &ext| n.checked_mul(ext))
                    .unwrap_or_else(|| {
                        panic!("array {}: extents {dims:?} overflow usize", decl.name)
                    });
                let mut data = vec![0.0; total];
                // initialize cell by cell (row-major enumeration)
                let mut idx = vec![0usize; dims.len()];
                for cell in data.iter_mut() {
                    *cell = init(&decl.name, &idx);
                    for d in (0..dims.len()).rev() {
                        idx[d] += 1;
                        if idx[d] < dims[d] {
                            break;
                        }
                        idx[d] = 0;
                    }
                }
                ArrayData {
                    name: decl.name.clone(),
                    dims,
                    data,
                }
            })
            .collect();
        Machine {
            params: params.to_vec(),
            arrays,
        }
    }

    /// The bound parameters.
    pub fn params(&self) -> &[Int] {
        &self.params
    }

    /// Array storage by id.
    pub fn array(&self, a: ArrayId) -> &ArrayData {
        &self.arrays[a.0]
    }

    /// Mutable array storage by id.
    pub fn array_mut(&mut self, a: ArrayId) -> &mut ArrayData {
        &mut self.arrays[a.0]
    }

    /// All arrays.
    pub fn arrays(&self) -> &[ArrayData] {
        &self.arrays
    }

    /// Mutable access to all arrays.
    pub fn arrays_mut(&mut self) -> &mut [ArrayData] {
        &mut self.arrays
    }

    /// Flat data of an array found by name.
    pub fn array_by_name(&self, name: &str) -> Option<&[f64]> {
        self.arrays
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.data.as_slice())
    }

    /// Compare final states with another machine, matching arrays by name
    /// and comparing **bitwise** (a legal transformation cannot change even
    /// floating-point results). Returns the first difference found.
    pub fn same_state(&self, other: &Machine) -> Result<(), String> {
        for a in &self.arrays {
            let Some(b) = other.arrays.iter().find(|b| b.name == a.name) else {
                return Err(format!("array {} missing in other machine", a.name));
            };
            if a.dims != b.dims {
                return Err(format!(
                    "array {}: shape {:?} vs {:?}",
                    a.name, a.dims, b.dims
                ));
            }
            for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!("array {}: cell {i} differs: {x} vs {y}", a.name));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::{zoo, Aff};

    #[test]
    fn allocation_and_init() {
        let p = zoo::simple_cholesky();
        let m = Machine::new(&p, &[4], &|_, idx| idx[0] as f64);
        let a = m.array_by_name("A").unwrap();
        assert_eq!(a.len(), 5); // N + 1
        assert_eq!(a[3], 3.0);
    }

    #[test]
    fn multidim_layout() {
        let p = zoo::wavefront();
        let m = Machine::new(&p, &[3], &|_, idx| (10 * idx[0] + idx[1]) as f64);
        let a = m.arrays().iter().find(|a| a.name == "A").unwrap();
        assert_eq!(a.dims, vec![4, 4]);
        assert_eq!(a.get(&[2, 3]), 23.0);
        assert_eq!(a.flat(&[1, 0]), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let p = zoo::wavefront();
        let m = Machine::new(&p, &[3], &|_, _| 0.0);
        let a = m.arrays().first().unwrap();
        let _ = a.get(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let p = zoo::wavefront();
        let m = Machine::new(&p, &[3], &|_, _| 0.0);
        let _ = m.arrays()[0].flat(&[1]);
    }

    /// `X[e]`, extent affine in `N`, never run.
    fn one_array(dims: &[Aff]) -> Program {
        let mut b = inl_ir::ProgramBuilder::new("extent");
        b.param("N");
        b.array("X", dims);
        b.finish()
    }

    #[test]
    #[should_panic(expected = "array X: extent 18446744073709551617 does not fit usize")]
    fn extent_beyond_usize_is_refused() {
        let n = Aff::param(inl_ir::ParamId(0));
        Machine::new(&one_array(&[n]), &[(1 << 64) + 1], &|_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "array X: extents [4294967296, 4294967296] overflow usize")]
    fn cell_count_beyond_usize_is_refused() {
        let n = Aff::param(inl_ir::ParamId(0));
        Machine::new(&one_array(&[n.clone(), n]), &[1 << 32], &|_, _| 0.0);
    }

    #[test]
    fn same_state_detects_differences() {
        let p = zoo::simple_cholesky();
        let m1 = Machine::new(&p, &[4], &|_, idx| idx[0] as f64);
        let mut m2 = m1.clone();
        assert!(m1.same_state(&m2).is_ok());
        m2.arrays_mut()[0].data[2] += 1.0;
        assert!(m1.same_state(&m2).is_err());
    }
}
