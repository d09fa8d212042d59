"""np: NumPy for gkm, linalg, multipoly and permco, imported (under the import lock) on its
first attribute read, so the symmetric-function routes never load it.  That read copies
NumPy's namespace into np and makes np a plain module, as fast to read as NumPy itself."""

import types


class _Deferred(types.ModuleType):
    def __getattr__(self, name: str):
        import numpy
        self.__dict__.update(numpy.__dict__)
        self.__class__ = types.ModuleType
        return getattr(numpy, name)


np = _Deferred("numpy")
